package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// upstream is the parent-facing half of a node: one connection to the
// parent (a center or a higher relay) speaking the point protocol, used by
// measurement points and aggregation relays alike. It owns the dial, the
// Hello→Welcome handshake, the one-window retransmit buffer and its
// requeue on resync, bounded writes, heartbeats, and the redial backoff
// schedule. The role supplies its Hello, its reaction to the Welcome and
// what a push does, through the hooks below.
type upstream struct {
	// id is this node's id at the parent (Upload.Point of its frames).
	id   int
	addr string
	dial func(addr string) (net.Conn, error)
	// dialTimeout is the configured DialTimeout: effectiveDialTimeout of
	// it bounds the Hello→Welcome handshake of every connect.
	dialTimeout time.Duration
	// wto bounds every write (0 = block forever); hbEvery paces heartbeats
	// (0 = none).
	wto, hbEvery time.Duration
	// backoff/backoffMax shape the redial schedule (see redial); sleep is
	// its delay hook (time.Sleep outside tests).
	backoff, backoffMax time.Duration
	sleep               func(time.Duration)

	// hello builds the handshake's Hello; called without mu held.
	hello func() Hello
	// welcomed applies the parent's Welcome, with mu held, after the sent
	// history the parent lost is requeued and before the hop goes live.
	welcomed func(w Welcome)
	// heartbeatEpoch is the Epoch a heartbeat carries; called with mu held.
	heartbeatEpoch func() int64
	// push applies one push from the parent; an error drops the hop.
	push func(p Push) error
	// changed, if set, runs with mu held whenever the hop goes up or down.
	changed func()
	// lost, if set, runs without mu, on the dead hop's reader goroutine,
	// when the live hop dies before close: the relay's retry policy. A
	// point leaves redialing to its epoch clock.
	lost func()

	// mu is the owning node's lock; it guards everything below, so the
	// role's own state changes atomically with the hop's.
	mu   *sync.Mutex
	conn net.Conn      // newest connection (closed once the hop dies)
	live bool          // whether conn is the hop's working connection
	out  []byte        // the frame being written, reused under mu
	done chan struct{} // closed when conn's reader exits
	err  error         // why the hop went down
	// windowN and points arrive in the parent's Welcome; windowN caps the
	// retransmit buffer.
	windowN, points int
	// pending holds the last window of uploads: they are appended here
	// first, then the unsent entries drain over the live hop. Uploads
	// whose transmission failed stay unsent and are retransmitted after
	// the next connect, so epochs that end while the parent is unreachable
	// are not silently lost. Sent entries are retained (sent=true) instead
	// of discarded: if a restarted parent restores a checkpoint that
	// predates them, the Welcome handshake requeues exactly the epochs it
	// lost. Anything older than one window falls outside every live
	// ST-join, so retaining it only wastes memory.
	pending []pendingUpload
	closed  bool

	retried, dropped, hbSent, writeTimeouts atomic.Int64

	wg sync.WaitGroup // the reader and heartbeat goroutines
}

// pendingUpload is a buffered upload. attempted marks uploads whose first
// transmission failed (or that were buffered while disconnected); sending
// one after reconnect counts as a retry. sent marks uploads written to the
// hop; they stay buffered as history for parent-restart requeues
// until the window slides past them.
type pendingUpload struct {
	up        Upload
	attempted bool
	sent      bool
}

// errUpstreamClosed ends a redial once the owner has closed the hop.
var errUpstreamClosed = errors.New("transport: upstream closed")

// dialer returns dial, or a raw TCP dial bounded by timeout when dial is
// nil: an unbounded dial would stall whoever redials (a point's epoch
// clock) for the whole kernel timeout when the parent's host drops off the
// network.
func dialer(dial func(string) (net.Conn, error), timeout time.Duration) func(string) (net.Conn, error) {
	if dial != nil {
		return dial
	}
	timeout = effectiveDialTimeout(timeout)
	return func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
}

// effectiveDialTimeout maps a configured DialTimeout to the bound actually
// applied to raw TCP dials (default 10s; the config value wins when set).
func effectiveDialTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// connect dials the parent, runs the handshake and brings the hop up,
// starting its reader and heartbeats. Uploads the parent no longer has
// (sent history past Welcome.PointEpoch) are requeued, but nothing is sent
// until flush. Callers must not hold mu.
func (u *upstream) connect() error {
	conn, err := u.dial(u.addr)
	if err != nil {
		return fmt.Errorf("transport: dial upstream: %w", err)
	}
	// The handshake shares the dial's bound: a parent that accepts and
	// never answers must fail this connect, not stall the redial behind
	// it (and the owner's Close) forever.
	_ = conn.SetDeadline(time.Now().Add(effectiveDialTimeout(u.dialTimeout)))
	if _, err := conn.Write(appendHello(nil, u.hello())); err != nil {
		conn.Close()
		return fmt.Errorf("transport: send hello: %w", err)
	}
	w, err := readMessage(conn, frameWelcome, parseWelcome)
	if err != nil {
		conn.Close()
		return fmt.Errorf("transport: receive welcome: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		conn.Close()
		return errUpstreamClosed
	}
	u.windowN, u.points = w.WindowN, w.Points
	// A parent that restored an old checkpoint reports the PointEpoch it
	// actually holds; everything after it must be uploaded again
	// (idempotent at the parent if the restore is fresher than advertised).
	for i := range u.pending {
		if u.pending[i].sent && u.pending[i].up.Epoch > w.PointEpoch {
			u.pending[i].sent = false
			u.pending[i].attempted = true
		}
	}
	u.welcomed(w)
	done := make(chan struct{})
	u.conn, u.live, u.done, u.err = conn, true, done, nil
	if u.changed != nil {
		u.changed()
	}
	u.wg.Add(1)
	go u.read(conn, done)
	if u.hbEvery > 0 {
		u.wg.Add(1)
		go u.heartbeat(conn, done)
	}
	return nil
}

// read applies the parent's pushes until the hop dies, then takes it down
// and, unless the owner closed it, hands the outage to lost.
func (u *upstream) read(conn net.Conn, done chan struct{}) {
	defer u.wg.Done()
	var err error
	for err == nil {
		var p Push
		if p, err = readMessage(conn, framePush, parsePush); err == nil {
			err = u.push(p)
		}
	}
	u.mu.Lock()
	current := u.conn == conn // a newer hop may already have taken over
	if current {
		u.live, u.err = false, err
		if u.changed != nil {
			u.changed()
		}
	}
	lost := current && !u.closed && u.lost != nil
	u.mu.Unlock()
	_ = conn.Close()
	close(done)
	if lost {
		u.lost()
	}
}

// heartbeat sends liveness probes on conn until its reader exits, keeping
// this node admitted at a parent with a read deadline through quiet
// stretches. Probes are written under mu like uploads, so whole frames
// interleave; a failed probe ends the loop — the reader and the
// redial machinery own recovery.
func (u *upstream) heartbeat(conn net.Conn, done chan struct{}) {
	defer u.wg.Done()
	t := time.NewTicker(u.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		u.mu.Lock()
		if u.conn != conn || !u.live {
			u.mu.Unlock()
			return
		}
		u.out = appendHeartbeat(u.out[:0], u.id, u.heartbeatEpoch())
		err := u.writeLocked()
		u.mu.Unlock()
		if err != nil {
			return
		}
		u.hbSent.Add(1)
	}
}

// writeLocked writes the frame in out on the live hop, bounded by wto.
// Callers hold mu — which is exactly why the bound exists: an unbounded
// write against a parent that stopped reading would wedge every path that
// takes the node's lock. A write that times out leaves the stream torn
// mid-frame, so the connection is closed: the reader unblocks and takes
// the hop down, and the buffered upload waits for the next connect.
func (u *upstream) writeLocked() error {
	if u.wto > 0 {
		_ = u.conn.SetWriteDeadline(time.Now().Add(u.wto))
		defer u.conn.SetWriteDeadline(time.Time{})
	}
	_, err := u.conn.Write(u.out)
	if isWedged(err) {
		u.writeTimeouts.Add(1)
		_ = u.conn.Close()
	}
	return err
}

// flushLocked sends the buffer's unsent uploads over the live hop, oldest
// first, keeping them as sent history afterwards. On a failure the
// remaining unsent uploads stay and are marked attempted; a down hop sends
// nothing. Callers must hold mu.
func (u *upstream) flushLocked() error {
	if !u.live {
		return nil
	}
	for i := range u.pending {
		p := &u.pending[i]
		if p.sent {
			continue
		}
		u.out = appendUpload(u.out[:0], p.up)
		if err := u.writeLocked(); err != nil {
			u.markAttemptedLocked()
			return fmt.Errorf("transport: upload epoch %d: %w", p.up.Epoch, err)
		}
		if p.attempted {
			u.retried.Add(1)
		}
		p.sent = true
	}
	return nil
}

// flush is flushLocked for callers not holding mu.
func (u *upstream) flush() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.flushLocked()
}

// markAttemptedLocked records that every unsent buffered upload has missed
// at least one transmission window. Callers must hold mu.
func (u *upstream) markAttemptedLocked() {
	for i := range u.pending {
		if !u.pending[i].sent {
			u.pending[i].attempted = true
		}
	}
}

// capLocked bounds the buffer (unsent retransmits plus sent history) at
// one window of epochs and returns how many UNSENT uploads it dropped —
// lost measurements, counted; dropping sent history is free. Callers must
// hold mu.
func (u *upstream) capLocked() int {
	if u.windowN <= 0 || len(u.pending) <= u.windowN {
		return 0
	}
	drop := len(u.pending) - u.windowN
	unsent := 0
	for _, p := range u.pending[:drop] {
		if !p.sent {
			unsent++
		}
	}
	u.dropped.Add(int64(unsent))
	u.pending = append(u.pending[:0], u.pending[drop:]...)
	return unsent
}

// redial brings the hop back: up to attempts connects (attempts < 1: until
// close), the first immediate and each later one after a delay drawn from
// [backoff/2, backoff], the backoff doubling up to backoffMax (defaults
// 200ms and 2s) — full jitter, so nodes knocked out by the same parent
// restart spread their retries instead of redialing in lockstep. Once
// connected it retransmits the buffer and returns the flush error; if
// every attempt fails, the last attempt's error.
func (u *upstream) redial(attempts int) error {
	backoff, maxBackoff := u.backoff, u.backoffMax
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var err error
	for i := 0; attempts < 1 || i < attempts; i++ {
		if i > 0 {
			u.sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			backoff = min(2*backoff, maxBackoff)
		}
		u.mu.Lock()
		closed := u.closed
		u.mu.Unlock()
		if closed {
			return errUpstreamClosed
		}
		if err = u.connect(); err == nil {
			return u.flush()
		}
	}
	return err
}

// close takes the hop down for good: no redial follows. Callers then wait
// on wg for the hop's goroutines.
func (u *upstream) close() error {
	u.mu.Lock()
	u.closed = true
	conn, live := u.conn, u.live
	u.mu.Unlock()
	if !live {
		return nil // the dead hop's reader closes its own connection
	}
	return conn.Close()
}
