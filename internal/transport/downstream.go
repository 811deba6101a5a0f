package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// downstream is the child-facing half of a node: the center protocol served
// to directly attached children — leaf points or relays — by the center
// and by every aggregation relay alike. It owns the accept loop, Hello
// validation, connection takeover, the resync of a (re)connecting child,
// the frame loop with its read deadline and heartbeats, the concurrent
// push fan-out with per-child write deadlines and eviction, checkpoint
// scheduling, and the counters behind the Wait* helpers. The role supplies
// what differs through the hooks below.
type downstream struct {
	// role names the node in logs and its checkpoint section ("center",
	// "relay").
	role            string
	kind            Kind
	shard           int
	widths, weights map[int]int
	// readTimeout bounds the wait for each child frame and writeTimeout
	// each push (0 = block forever).
	readTimeout, writeTimeout time.Duration
	logf                      func(format string, args ...any)

	// welcome builds the handshake reply to an admitted Hello.
	welcome func(h Hello) Welcome
	// pushFor builds child c's push for round forEpoch; ok=false when the
	// role has nothing to send for that round.
	pushFor func(c *childConn, forEpoch int64) (p Push, ok bool, err error)
	// ingest handles one upload (never a heartbeat) from a child.
	ingest func(up Upload) error
	// snapshot encodes the role's checkpoint section, saved under the
	// role's name.
	snapshot func() ([]byte, error)

	ln          net.Listener
	ckpt        *durable.Store // nil when durability is disabled
	ckptEvery   int64
	ckptMu      sync.Mutex // serializes checkpoint writes
	restoredGen uint64     // generation restored at startup (0 = fresh)

	// mu is the node's lock: it guards the fields below and whatever state
	// the role adds; cond broadcasts every change for the Wait* helpers.
	mu    sync.Mutex
	cond  *sync.Cond
	conns map[int]*childConn
	// lastPush is the newest round published: a child registering after
	// the publication is re-pushed it by its resync, one registered before
	// is in the round's fan-out. pushed is the newest round whose fan-out
	// has finished.
	lastPush, pushed int64
	lastRoundAt      time.Time
	uploads, dups    int64
	rounds           int64
	repushes         int64
	backfills        int64
	checkpoints      int64
	heartbeats       int64
	evictions        int64
	closed           bool

	wg sync.WaitGroup
}

// childConn is one admitted child connection.
type childConn struct {
	id   int
	conn net.Conn
	// wto bounds each frame write on the connection (0 = never time out).
	wto time.Duration
	mu  sync.Mutex // serializes writes: a fan-out and a resync may race
	out []byte     // the frame being written, reused under mu
}

// send writes the frame appendFrame builds, as one write.
func (c *childConn) send(appendFrame func(dst []byte) []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wto > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.wto))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	c.out = appendFrame(c.out[:0])
	_, err := c.conn.Write(c.out)
	return err
}

// sendPush writes one push frame.
func (c *childConn) sendPush(p Push) error {
	return c.send(func(dst []byte) []byte { return appendPush(dst, p) })
}

// isWedged reports whether a connection error means the peer is wedged
// (deadline expired) rather than gone (reset, EOF, closed). Wedged peers
// are evicted and counted; gone peers just disconnect.
func isWedged(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// normWeight maps the wire/config weight encoding (0 = unset) to the
// effective leaf count (>= 1).
func normWeight(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// init readies the lock, the registry and the checkpoint cadence (default
// every round); the role sets the configuration and hooks first.
func (d *downstream) init(ckptEvery int) {
	d.cond = sync.NewCond(&d.mu)
	d.conns = make(map[int]*childConn)
	d.ckptEvery = int64(max(ckptEvery, 1))
}

// serve starts accepting children on ln.
func (d *downstream) serve(ln net.Listener) {
	d.ln = ln
	d.wg.Add(1)
	go d.acceptLoop()
}

// Addr returns the bound child-facing listen address.
func (d *downstream) Addr() net.Addr { return d.ln.Addr() }

// bump increments one counter under the node lock and wakes the waiters.
func (d *downstream) bump(n *int64) {
	d.mu.Lock()
	*n++
	d.cond.Broadcast()
	d.mu.Unlock()
}

// WaitRounds blocks until at least n push rounds have been fanned out to
// the children, or the node closes.
func (d *downstream) WaitRounds(n int64) bool {
	return d.waitCond(0, func() bool { return d.rounds >= n })
}

// WaitConnected blocks until exactly n children are connected, or the
// node closes.
func (d *downstream) WaitConnected(n int) bool {
	return d.waitCond(0, func() bool { return len(d.conns) == n })
}

// WaitCheckpoints blocks until at least n checkpoints have been written
// this process lifetime, or the node closes.
func (d *downstream) WaitCheckpoints(n int64) bool {
	return d.waitCond(0, func() bool { return d.checkpoints >= n })
}

// WaitPushEpoch blocks until the fan-out of a round with ForEpoch >= e has
// finished, the timeout elapses, or the node closes. Unlike WaitRounds it
// needs no model of how many back-rounds a recovery replays, which makes
// it the watchdog primitive for chaos schedules: "the cluster reached
// epoch e, or it is wedged".
func (d *downstream) WaitPushEpoch(e int64, timeout time.Duration) bool {
	return d.waitCond(timeout, func() bool { return d.pushed >= e })
}

// WaitConnectedFor is WaitConnected with a watchdog timeout.
func (d *downstream) WaitConnectedFor(n int, timeout time.Duration) bool {
	return d.waitCond(timeout, func() bool { return len(d.conns) == n })
}

// WaitHeartbeats blocks until at least n heartbeat frames have been
// accepted from children, the timeout elapses, or the node closes.
func (d *downstream) WaitHeartbeats(n int64, timeout time.Duration) bool {
	return d.waitCond(timeout, func() bool { return d.heartbeats >= n })
}

// waitCond is the package waitCond on the node's lock, ending when the
// node closes.
func (d *downstream) waitCond(timeout time.Duration, pred func() bool) bool {
	return waitCond(d.cond, timeout, func() bool { return d.closed }, pred)
}

// waitCond blocks on cond until pred holds, stopped reports true, or — for
// a positive timeout — the timeout elapses; both are evaluated with cond.L
// held. It returns pred's truth at return time, giving deterministic tests
// a synchronization point that needs no sleeping.
func waitCond(cond *sync.Cond, timeout time.Duration, stopped, pred func() bool) bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		})
		defer timer.Stop()
	}
	cond.L.Lock()
	defer cond.L.Unlock()
	for !pred() && !stopped() && (deadline.IsZero() || time.Now().Before(deadline)) {
		cond.Wait()
	}
	return pred()
}

func (d *downstream) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// childrenLocked snapshots the registered connections. Callers hold mu.
func (d *downstream) childrenLocked() []*childConn {
	conns := make([]*childConn, 0, len(d.conns))
	for _, c := range d.conns {
		conns = append(conns, c)
	}
	return conns
}

// close stops accepting, drops every child connection and waits for the
// accept loop and the connection handlers.
func (d *downstream) close() error {
	d.mu.Lock()
	d.closed = true
	conns := d.childrenLocked()
	d.cond.Broadcast()
	d.mu.Unlock()
	err := d.ln.Close()
	for _, c := range conns {
		_ = c.conn.Close()
	}
	d.wg.Wait()
	return err
}

func (d *downstream) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			if err := d.handle(conn); err != nil && !d.isClosed() {
				d.logf("transport: %s connection error: %v", d.role, err)
			}
		}()
	}
}

// admit validates a Hello against the topology: a known child, the
// node's design, the child's declared width and weight, this node's
// shard — shards share sketch parameters, so a misrouted child would
// otherwise corrupt one silently — and a state epoch inside the epoch
// rule (core.CheckEpoch), so the resync arithmetic cannot wrap.
func (d *downstream) admit(h Hello) error {
	wantW, ok := d.widths[h.Point]
	if !ok || h.Kind != d.kind || h.W != wantW {
		return fmt.Errorf("hello mismatch from child %d: %+v", h.Point, h)
	}
	if err := core.CheckEpoch(h.StateEpoch, 0); err != nil {
		return fmt.Errorf("hello from child %d: state %w", h.Point, err)
	}
	if h.Shard != d.shard {
		return fmt.Errorf("child %d dialed shard %d but this %s serves shard %d", h.Point, h.Shard, d.role, d.shard)
	}
	if w, want := normWeight(h.Weight), normWeight(d.weights[h.Point]); w != want {
		return fmt.Errorf("child %d announced weight %d, topology says %d", h.Point, w, want)
	}
	return nil
}

func (d *downstream) handle(conn net.Conn) (err error) {
	defer conn.Close()
	// A malformed message must never take the node down: the decode and
	// unmarshal paths below return errors on everything the fuzzers
	// generate, and this guard turns any survivor panic into a dropped
	// connection.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic handling connection: %v", r)
		}
	}()
	_, body, err := d.readBounded(conn, frameHello)
	if err != nil {
		return fmt.Errorf("read hello: %w", err)
	}
	hello, err := parseHello(body)
	if err != nil {
		return fmt.Errorf("parse hello: %w", err)
	}
	if err := d.admit(hello); err != nil {
		return err
	}
	c := &childConn{id: hello.Point, conn: conn, wto: d.writeTimeout}
	welcome := d.welcome(hello)
	if err := c.send(func(dst []byte) []byte { return appendWelcome(dst, welcome) }); err != nil {
		return fmt.Errorf("send welcome to child %d: %w", c.id, err)
	}
	d.mu.Lock()
	if old, dup := d.conns[c.id]; dup {
		// Connection takeover: a reconnecting child (agent restart, NAT
		// rebinding) replaces its stale connection. The old handler exits
		// on its closed socket.
		_ = old.conn.Close()
	}
	d.conns[c.id] = c
	lastPush := d.lastPush
	d.cond.Broadcast()
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		// Only remove the registration if it still belongs to this
		// connection; a takeover may already have replaced it.
		if d.conns[c.id] == c {
			delete(d.conns, c.id)
		}
		d.cond.Broadcast()
		d.mu.Unlock()
	}()
	if err := d.resync(c, hello, welcome, lastPush); err != nil {
		d.logf("transport: %s resync of child %d: %v", d.role, c.id, err)
	}

	for {
		kind, body, err := d.readBounded(conn, frameUpload, frameHeartbeat)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isWedged(err) {
				d.bump(&d.evictions)
				return fmt.Errorf("evicting child %d: no frame within %v (half-open peer?)", c.id, d.readTimeout)
			}
			return fmt.Errorf("read upload: %w", err)
		}
		var up Upload
		if kind == frameHeartbeat {
			up.Point, _, err = parseHeartbeat(body)
		} else {
			up, err = parseUpload(body)
		}
		if err != nil {
			return fmt.Errorf("parse upload: %w", err)
		}
		if up.Point != c.id {
			return fmt.Errorf("upload claims child %d on connection of child %d", up.Point, c.id)
		}
		if kind == frameHeartbeat {
			d.bump(&d.heartbeats)
			continue
		}
		if err := d.ingest(up); err != nil {
			return err
		}
	}
}

// readBounded reads one frame of the given kinds, arming the connection's
// read deadline first when readTimeout is configured. A child must produce
// SOME frame (upload or heartbeat) within each window or the read fails
// with os.ErrDeadlineExceeded and the caller evicts it.
func (d *downstream) readBounded(conn net.Conn, kinds ...byte) (byte, []byte, error) {
	if d.readTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(d.readTimeout))
	}
	return readFrame(conn, kinds...)
}

// resync brings a newly registered child level with the cluster. K is the
// epoch the child lives in after the handshake: its own clock, or the
// cluster's if that is ahead (Welcome.ResumeEpoch fast-forwards it). A
// child whose state is behind K lost its window — a restart without (or
// from an old) checkpoint — and gets the backfill exchange; a child merely
// reconnecting mid-epoch gets the newest published round re-pushed, which
// it drops if already merged (ErrStaleEpoch / ErrDuplicatePush).
func (d *downstream) resync(c *childConn, hello Hello, welcome Welcome, lastPush int64) error {
	K := max(welcome.ResumeEpoch, hello.StateEpoch)
	switch {
	case hello.StateEpoch < K && K > 1:
		return d.backfill(c, K)
	case lastPush > 0:
		sent, err := d.sendRound(c, lastPush)
		if sent {
			d.bump(&d.repushes)
		}
		return err
	}
	return nil
}

// backfill runs the exchange for a child that rejoined epoch K without its
// window: first an IntoCurrent push carrying the aggregate of round K-1 —
// exactly the parent's part of epoch K's window, which the child merges
// straight into its query target — then the regular staged push for K, so
// the child's next epoch boundary proceeds as if it had never been away.
func (d *downstream) backfill(c *childConn, K int64) error {
	fill, ok, err := d.pushFor(c, K-1)
	if err != nil {
		return err
	}
	if ok && len(fill.Aggregate) > 0 {
		fill.ForEpoch, fill.IntoCurrent = K, true
		// The K-1 enhancement targets an epoch the child no longer holds;
		// the aggregate already covers its span.
		fill.Enhancement = nil
		if err := c.sendPush(fill); err != nil {
			return err
		}
		d.bump(&d.backfills)
	}
	_, err = d.sendRound(c, K)
	return err
}

// sendRound sends child c its push for round forEpoch, reporting whether
// one was delivered.
func (d *downstream) sendRound(c *childConn, forEpoch int64) (bool, error) {
	p, ok, err := d.pushFor(c, forEpoch)
	if err != nil || !ok {
		return false, err
	}
	if err := c.sendPush(p); err != nil {
		return false, err
	}
	return true, nil
}

// pushRound publishes round forEpoch and fans it out to every registered
// child. publishLocked, if set, runs under mu together with the
// publication and the snapshot of the children, so a child registering
// concurrently either is in the fan-out or finds the round published for
// its resync re-push — never neither. The sends run concurrently, each
// under its own write deadline, so a child that stopped reading delays
// only itself; the round counts as pushed once every send has returned.
func (d *downstream) pushRound(forEpoch int64, publishLocked func()) {
	d.mu.Lock()
	d.lastPush = max(d.lastPush, forEpoch)
	if publishLocked != nil {
		publishLocked()
	}
	conns := d.childrenLocked()
	d.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for _, c := range conns {
		go func(c *childConn) {
			defer wg.Done()
			if _, err := d.sendRound(c, forEpoch); err != nil {
				d.logf("transport: %s push to child %d: %v", d.role, c.id, err)
				if isWedged(err) {
					// The child stopped draining pushes: evict it rather than
					// let its dead socket (and its torn frame) linger. Its
					// handler's next read fails and cleans up; the child
					// re-admits through the resync handshake.
					_ = c.conn.Close()
					d.bump(&d.evictions)
				}
			}
		}(c)
	}
	wg.Wait()
	d.mu.Lock()
	d.pushed = max(d.pushed, forEpoch)
	d.lastRoundAt = time.Now()
	doCkpt := d.ckpt != nil && (d.rounds+1)%d.ckptEvery == 0
	d.mu.Unlock()
	if doCkpt {
		// Checkpoint before the round becomes observable through the
		// rounds counter (WaitRounds), so at the default cadence "round n
		// pushed" implies "round n durable".
		d.writeCheckpoint()
	}
	d.bump(&d.rounds)
}

// openCheckpoint opens the node's durable store under dir and, when it
// holds an intact generation, hands the role's section to restore. Every
// retained generation being corrupt is an error: refusing to start is
// safer than silently discarding the window, and the operator can clear
// the directory to accept the loss explicitly.
func (d *downstream) openCheckpoint(dir, name string, restore func(data []byte) error) error {
	store, err := durable.Open(dir, name)
	if err != nil {
		return fmt.Errorf("transport: open %s checkpoint store: %w", d.role, err)
	}
	d.ckpt = store
	sections, gen, err := store.Load()
	switch {
	case errors.Is(err, durable.ErrNoCheckpoint):
		return nil // fresh start
	case err != nil:
		return fmt.Errorf("transport: load %s checkpoint: %w", d.role, err)
	}
	err = fmt.Errorf("checkpoint has no %s section", d.role)
	for _, sec := range sections {
		if sec.Name == d.role {
			err = restore(sec.Data)
		}
	}
	if err != nil {
		return fmt.Errorf("transport: restore %s checkpoint (generation %d): %w", d.role, gen, err)
	}
	d.restoredGen = gen
	return nil
}

// writeCheckpoint saves the role's snapshot as a new durable generation.
// Failures are logged, not fatal: the node keeps serving and retries at
// the next round, degrading recovery freshness rather than availability.
func (d *downstream) writeCheckpoint() {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	data, err := d.snapshot()
	if err == nil {
		err = d.ckpt.Save([]durable.Section{{Name: d.role, Data: data}})
	}
	if err != nil {
		d.logf("transport: write %s checkpoint: %v", d.role, err)
		return
	}
	d.bump(&d.checkpoints)
}
