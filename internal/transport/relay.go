package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// RelayConfig describes one aggregation-tree relay: a mid-level node that
// serves the center protocol to its children (leaf points or deeper
// relays) and speaks the point protocol upstream (to the center or a
// higher relay), uploading one pre-merged sketch per epoch for its whole
// subtree. The upstream topology must list this relay as a direct child
// whose width is the maximum child width here and whose weight is the
// subtree's leaf count.
type RelayConfig struct {
	// Addr is the child-facing listen address.
	Addr string
	// Listener, if set, is used instead of listening on Addr.
	Listener net.Listener
	// UpstreamAddr is the parent's address (center or higher relay).
	UpstreamAddr string
	// UpstreamDial, if set, replaces net.Dial for the upstream hop.
	UpstreamDial func(addr string) (net.Conn, error)
	// Relay is this relay's id in the upstream topology.
	Relay int
	// Kind and Sketch mirror CenterConfig; the whole tree must agree.
	Kind   Kind
	Sketch string
	// WindowN is the paper's n (bounds relay buffering; must match the
	// cluster's).
	WindowN int
	// Widths maps child id to sketch width; Weights maps child id to its
	// subtree's leaf count (omit or 1 for leaf points).
	Widths  map[int]int
	Weights map[int]int
	// M, D, Seed are the cluster sketch parameters.
	M, D int
	Seed uint64
	// Shard is the center shard this subtree belongs to (0 when unsharded);
	// validated on both hops.
	Shard int
	// DialTimeout bounds upstream TCP dials when UpstreamDial is nil
	// (default 10s).
	DialTimeout time.Duration
	// RedialBackoff/RedialBackoffMax shape the jittered exponential backoff
	// of the automatic upstream redial loop (defaults 200ms / 2s). Unlike a
	// point — whose epoch clock drives explicit Redials — a relay has no
	// clock of its own, so it reconnects autonomously until Close.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// CheckpointDir/CheckpointEvery enable crash-safe durability exactly
	// like the center's (internal/durable): partially merged rounds, the
	// push cache and the upstream retransmit buffer survive a restart.
	CheckpointDir   string
	CheckpointEvery int
	// HistoryAddr, if set, serves a history-query proxy on this address:
	// query RPC frames (tqquery, including -at/-range) from this subtree
	// are forwarded verbatim to HistoryUpstreamAddr — the center's
	// HistoryAddr, or a higher relay's own proxy. Both must be set
	// together.
	HistoryAddr         string
	HistoryUpstreamAddr string
	// Logf, if set, receives diagnostic messages (defaults to log.Printf).
	Logf func(format string, args ...any)
	// ReadTimeout, when positive, bounds how long the relay waits for the
	// next frame from a child before evicting it as half-open (see
	// CenterConfig.ReadTimeout; children must heartbeat faster than this).
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds every write on both hops: pushes
	// fanned to children AND combined uploads forwarded upstream. The
	// upstream bound matters doubly: the forward path encodes while
	// holding the relay lock, so an unbounded write against a parent that
	// stopped reading would wedge the entire relay, not just the hop.
	WriteTimeout time.Duration
	// HeartbeatEvery, when positive, sends liveness probes on the upstream
	// hop so a parent with a read deadline keeps this relay admitted
	// through quiet stretches. It does not change what the relay expects
	// of its children — configure the children's own HeartbeatEvery for
	// that.
	HeartbeatEvery time.Duration
	// forceLegacyCodec pins every hop to CodecLegacy (test hook).
	forceLegacyCodec bool
}

// RelayStats counts protocol activity at a relay.
type RelayStats struct {
	// ConnectedChildren is the number of live child connections.
	ConnectedChildren int
	// UpstreamConnected reports whether the upstream hop is live.
	UpstreamConnected bool
	// UploadsReceived / UploadsDuplicate count child uploads merged /
	// idempotently dropped.
	UploadsReceived  int64
	UploadsDuplicate int64
	// Forwards counts combined uploads handed upstream (buffered counts:
	// an upload forwarded while the upstream hop is down is retransmitted
	// by the redial loop).
	Forwards int64
	// ForwardsRetried / ForwardsDropped mirror the point client's
	// UploadsRetried / UploadsDropped for the upstream buffer.
	ForwardsRetried int64
	ForwardsDropped int64
	// UploadsDropped is ForwardsDropped under the name the point client
	// uses, so operators watching a mixed fleet read one field: combined
	// uploads discarded unsent because the upstream outage outlasted the
	// retransmit window.
	UploadsDropped int64
	// RoundsForwarded counts pushes received from upstream and fanned to
	// the children.
	RoundsForwarded int64
	// Repushes / Backfills count the resync exchanges run for reconnecting
	// children; BackfillsAbsorbed counts upstream backfill pushes folded
	// into the push cache after this relay itself restarted.
	Repushes          int64
	Backfills         int64
	BackfillsAbsorbed int64
	// UpstreamDials counts successful upstream connections.
	UpstreamDials int64
	// CheckpointsWritten counts durable checkpoints written successfully.
	CheckpointsWritten int64
	// RestoredGeneration is the checkpoint generation restored at startup
	// (0 = started fresh).
	RestoredGeneration uint64
	// HeartbeatsReceived counts liveness probes accepted from children;
	// HeartbeatsSent counts probes sent on the upstream hop.
	HeartbeatsReceived int64
	HeartbeatsSent     int64
	// Evictions counts child connections dropped because a deadline
	// expired (half-open or wedged child).
	Evictions int64
	// UpstreamWriteTimeouts counts upstream writes abandoned because the
	// parent stopped draining; each one fails the hop over to the redial
	// loop with the upload still buffered.
	UpstreamWriteTimeouts int64
	// LastPushEpoch is the newest upstream round's ForEpoch seen (0 =
	// none yet); LastRoundAt is when the most recent round finished
	// fanning to the children (zero = never). Health endpoints surface
	// them as the epoch lag and last-merge age.
	LastPushEpoch int64
	LastRoundAt   time.Time
}

// RelayServer is a running aggregation relay.
type RelayServer struct {
	cfg RelayConfig
	ln  net.Listener
	eng relayEngine

	ckpt        *durable.Store
	ckptEvery   int64
	ckptMu      sync.Mutex
	restoredGen uint64
	histRelay   *HistoryRelay // nil unless HistoryAddr is set

	mu   sync.Mutex
	cond *sync.Cond
	// conns are the child connections (the relay serves them the same
	// protocol a center serves points, so pointConn fits).
	conns map[int]*pointConn
	// Upstream hop state: nil conn/enc while the hop is down and the
	// redial loop is working on it.
	upConn    net.Conn
	upEnc     *gob.Encoder
	upCodec   int
	upWelcome Welcome
	haveUp    bool
	redialing bool
	// pending is the upstream retransmit buffer of combined uploads,
	// mirroring PointClient.pending (sent history retained for a window so
	// a center restored from an old checkpoint can requeue).
	pending []pendingUpload
	// cache holds the last window of upstream pushes at relay width,
	// keyed by ForEpoch: the source for child re-pushes and backfills. An
	// upstream IntoCurrent backfill is absorbed here — never forwarded —
	// because a healthy additive child would double-merge it.
	cache       map[int64]Push
	lastPush    int64
	lastRoundAt time.Time

	uploads, dups       int64
	forwards, retries   int64
	drops               int64
	rounds              int64
	repushes, backfills int64
	absorbed            int64
	updials             int64
	checkpoints         int64
	heartbeats          int64
	hbSent              int64
	evictions           int64
	upTimeouts          int64
	closed              bool

	sleep func(time.Duration)
	// stopCh closes when the relay shuts down, releasing timer-driven
	// loops (upstream heartbeats) promptly instead of at their next tick.
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// ServeRelay starts an aggregation relay: it connects upstream (the
// initial dial must succeed), then serves its children on cfg.Addr until
// Close.
func ServeRelay(cfg RelayConfig) (*RelayServer, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &RelayServer{
		cfg:    cfg,
		conns:  make(map[int]*pointConn),
		cache:  make(map[int64]Push),
		sleep:  time.Sleep,
		stopCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	eng, err := newRelayEngine(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.ckptEvery = int64(cfg.CheckpointEvery)
	if s.ckptEvery < 1 {
		s.ckptEvery = 1
	}
	if cfg.CheckpointDir != "" {
		store, err := durable.Open(cfg.CheckpointDir, fmt.Sprintf("relay-%d", cfg.Relay))
		if err != nil {
			return nil, fmt.Errorf("transport: open relay checkpoint store: %w", err)
		}
		s.ckpt = store
		sections, gen, err := store.Load()
		switch {
		case errors.Is(err, durable.ErrNoCheckpoint):
		case err != nil:
			return nil, fmt.Errorf("transport: load relay checkpoint: %w", err)
		default:
			if err := s.restoreCheckpoint(sections); err != nil {
				return nil, fmt.Errorf("transport: restore relay checkpoint (generation %d): %w", gen, err)
			}
			s.restoredGen = gen
		}
	}
	if err := s.connectUpstream(); err != nil {
		return nil, err
	}
	if cfg.HistoryAddr != "" {
		if cfg.HistoryUpstreamAddr == "" {
			return nil, fmt.Errorf("transport: relay HistoryAddr set without HistoryUpstreamAddr")
		}
		hr, err := ServeHistoryRelay(cfg.HistoryAddr, cfg.HistoryUpstreamAddr)
		if err != nil {
			return nil, err
		}
		s.histRelay = hr
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Addr); err != nil {
			if s.histRelay != nil {
				_ = s.histRelay.Close()
			}
			return nil, fmt.Errorf("transport: relay listen: %w", err)
		}
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound child-facing listen address.
func (s *RelayServer) Addr() net.Addr { return s.ln.Addr() }

// Stats returns a snapshot of the relay's counters.
func (s *RelayServer) Stats() RelayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RelayStats{
		ConnectedChildren:     len(s.conns),
		UpstreamConnected:     s.upEnc != nil,
		UploadsReceived:       s.uploads,
		UploadsDuplicate:      s.dups,
		Forwards:              s.forwards,
		ForwardsRetried:       s.retries,
		ForwardsDropped:       s.drops,
		UploadsDropped:        s.drops,
		RoundsForwarded:       s.rounds,
		Repushes:              s.repushes,
		Backfills:             s.backfills,
		BackfillsAbsorbed:     s.absorbed,
		UpstreamDials:         s.updials,
		CheckpointsWritten:    s.checkpoints,
		RestoredGeneration:    s.restoredGen,
		HeartbeatsReceived:    s.heartbeats,
		HeartbeatsSent:        s.hbSent,
		Evictions:             s.evictions,
		UpstreamWriteTimeouts: s.upTimeouts,
		LastPushEpoch:         s.lastPush,
		LastRoundAt:           s.lastRoundAt,
	}
}

// WaitUploads blocks until the relay has merged (or idempotently dropped)
// at least n child uploads, or the relay closes.
func (s *RelayServer) WaitUploads(n int64) bool {
	return s.waitCond(func() bool { return s.uploads+s.dups >= n })
}

// WaitForwards blocks until at least n combined uploads have been handed
// upstream (buffered counts), or the relay closes.
func (s *RelayServer) WaitForwards(n int64) bool {
	return s.waitCond(func() bool { return s.forwards >= n })
}

// WaitRounds blocks until at least n upstream push rounds have been fanned
// to the children, or the relay closes.
func (s *RelayServer) WaitRounds(n int64) bool {
	return s.waitCond(func() bool { return s.rounds >= n })
}

// WaitConnected blocks until exactly n children are connected, or the
// relay closes.
func (s *RelayServer) WaitConnected(n int) bool {
	return s.waitCond(func() bool { return len(s.conns) == n })
}

// WaitCheckpoints blocks until at least n checkpoints have been written
// this process lifetime, or the relay closes.
func (s *RelayServer) WaitCheckpoints(n int64) bool {
	return s.waitCond(func() bool { return s.checkpoints >= n })
}

// WaitUpstream blocks until the upstream hop is live (or not, per want),
// or the relay closes.
func (s *RelayServer) WaitUpstream(want bool) bool {
	return s.waitCond(func() bool { return (s.upEnc != nil) == want })
}

// WaitPushEpoch blocks until a round with ForEpoch >= e has been received
// from upstream, the timeout elapses, or the relay closes.
func (s *RelayServer) WaitPushEpoch(e int64, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return s.lastPush >= e })
}

// WaitConnectedFor is WaitConnected with a watchdog timeout.
func (s *RelayServer) WaitConnectedFor(n int, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return len(s.conns) == n })
}

// WaitHeartbeats blocks until at least n child heartbeats have been
// accepted, the timeout elapses, or the relay closes.
func (s *RelayServer) WaitHeartbeats(n int64, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return s.heartbeats >= n })
}

func (s *RelayServer) waitCond(cond func() bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !cond() && !s.closed {
		s.cond.Wait()
	}
	return cond()
}

// waitCondFor is waitCond with a deadline (see CenterServer.waitCondFor).
func (s *RelayServer) waitCondFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !cond() && !s.closed && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return cond()
}

// Close stops the relay: the child listener, every child connection and
// the upstream hop.
func (s *RelayServer) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.stopCh)
	}
	s.closed = true
	conns := make([]*pointConn, 0, len(s.conns))
	for _, pc := range s.conns {
		conns = append(conns, pc)
	}
	up := s.upConn
	s.cond.Broadcast()
	s.mu.Unlock()
	err := s.ln.Close()
	for _, pc := range conns {
		_ = pc.conn.Close()
	}
	if up != nil {
		_ = up.Close()
	}
	s.wg.Wait()
	if s.histRelay != nil {
		_ = s.histRelay.Close()
	}
	return err
}

// HistoryQueryAddr returns the bound address of the relay's history
// proxy, or nil when HistoryAddr was not configured.
func (s *RelayServer) HistoryQueryAddr() net.Addr {
	if s.histRelay == nil {
		return nil
	}
	return s.histRelay.Addr()
}

func (s *RelayServer) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ownCodec is the highest payload codec this relay advertises on both
// hops. The hops negotiate independently: payloads are re-marshaled at
// the relay, so a legacy child coexists with a packed upstream.
func (s *RelayServer) ownCodec() int {
	if s.cfg.forceLegacyCodec {
		return CodecLegacy
	}
	return CodecPacked
}

// ---- upstream hop --------------------------------------------------------

// connectUpstream dials the parent, runs the Hello↔Welcome handshake as a
// weighted point, resynchronizes the forwarding position and retransmits
// the buffered combined uploads. Callers must not hold s.mu.
func (s *RelayServer) connectUpstream() error {
	dial := s.cfg.UpstreamDial
	if dial == nil {
		timeout := s.cfg.DialTimeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	conn, err := dial(s.cfg.UpstreamAddr)
	if err != nil {
		return fmt.Errorf("transport: relay dial upstream: %w", err)
	}
	s.mu.Lock()
	stateEpoch := s.lastPush
	s.mu.Unlock()
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(Hello{
		Point: s.cfg.Relay, Kind: s.cfg.Kind, W: s.eng.relayWidth(),
		StateEpoch: stateEpoch, Codec: s.ownCodec(),
		Weight: s.eng.weight(), Shard: s.cfg.Shard,
	}); err != nil {
		conn.Close()
		return fmt.Errorf("transport: relay send hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	var welcome Welcome
	if err := dec.Decode(&welcome); err != nil {
		conn.Close()
		return fmt.Errorf("transport: relay receive welcome: %w", err)
	}
	s.mu.Lock()
	// The parent already ingested our combined uploads through PointEpoch:
	// epochs at or below it must never be rebuilt and re-forwarded (an
	// additive center would drop them as duplicates anyway; this keeps the
	// relay from holding dead rounds). Epochs after it that we had marked
	// sent were lost with the parent's state — requeue them.
	s.eng.resyncForwarded(welcome.PointEpoch)
	s.upConn, s.upEnc = conn, enc
	s.upCodec = negotiateCodec(welcome.Codec, s.ownCodec())
	s.upWelcome = welcome
	s.haveUp = true
	s.updials++
	for i := range s.pending {
		if s.pending[i].sent && s.pending[i].up.Epoch > welcome.PointEpoch {
			s.pending[i].sent = false
			s.pending[i].attempted = true
		}
	}
	flushErr := s.flushUpstreamLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.readUpstream(conn, dec)
	if hb := s.cfg.HeartbeatEvery; hb > 0 {
		s.wg.Add(1)
		go s.heartbeatUpstream(conn, hb)
	}
	if flushErr != nil {
		s.cfg.Logf("transport: relay upstream flush: %v", flushErr)
	}
	return nil
}

// heartbeatUpstream sends liveness probes on one upstream hop until it
// dies or is replaced, keeping this relay admitted at a parent with a
// read deadline through stretches where no child completes a round.
func (s *RelayServer) heartbeatUpstream(conn net.Conn, every time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.upConn != conn || s.upEnc == nil {
			s.mu.Unlock()
			return
		}
		err := s.encodeUpstreamLocked(Upload{
			Point: s.cfg.Relay, Epoch: s.eng.forwarded(), Heartbeat: true,
		})
		if err == nil {
			s.hbSent++
		} else if isWedged(err) {
			s.upTimeouts++
			_ = conn.Close()
		}
		s.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// encodeUpstreamLocked encodes one frame on the upstream hop, bounded by
// WriteTimeout when configured. Callers must hold s.mu — which is exactly
// why the bound exists: an unbounded write here against a parent that
// stopped reading would wedge every path that takes the relay lock.
func (s *RelayServer) encodeUpstreamLocked(v any) error {
	if wto := s.cfg.WriteTimeout; wto > 0 {
		_ = s.upConn.SetWriteDeadline(time.Now().Add(wto))
		defer func() {
			if s.upConn != nil {
				_ = s.upConn.SetWriteDeadline(time.Time{})
			}
		}()
	}
	return s.upEnc.Encode(v)
}

// readUpstream consumes the parent's pushes until the connection dies,
// then hands the hop to the redial loop.
func (s *RelayServer) readUpstream(conn net.Conn, dec *gob.Decoder) {
	defer s.wg.Done()
	for {
		var push Push
		if err := dec.Decode(&push); err != nil {
			break
		}
		if err := s.handleUpstreamPush(push); err != nil {
			s.cfg.Logf("transport: relay apply push: %v", err)
			break
		}
	}
	s.mu.Lock()
	if s.upConn == conn {
		s.upConn, s.upEnc = nil, nil
		s.cond.Broadcast()
	}
	stale := s.upConn != nil // a newer hop already took over
	startRedial := !s.closed && !stale && !s.redialing
	if startRedial {
		s.redialing = true
	}
	s.mu.Unlock()
	_ = conn.Close()
	if startRedial {
		s.wg.Add(1)
		go s.redialUpstream()
	}
}

// redialUpstream reconnects the upstream hop with jittered exponential
// backoff until it succeeds or the relay closes.
func (s *RelayServer) redialUpstream() {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.redialing = false
		s.mu.Unlock()
	}()
	backoff := s.cfg.RedialBackoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	maxBackoff := s.cfg.RedialBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	for !s.isClosed() {
		if err := s.connectUpstream(); err == nil {
			return
		}
		delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		s.sleep(delay)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// handleUpstreamPush caches one parent push and fans it to the children.
// An IntoCurrent backfill (sent because this relay rejoined state-behind
// after a crash) is absorbed into the cache only: the aggregate it
// carries is the round the relay missed, but the children applied that
// round when it was pushed live — re-forwarding it would double-merge at
// every healthy additive child. Children that themselves lost the round
// get it from the cache through their own backfill handshake.
func (s *RelayServer) handleUpstreamPush(push Push) error {
	if push.IntoCurrent {
		s.mu.Lock()
		s.cache[push.ForEpoch-1] = Push{
			ForEpoch:    push.ForEpoch - 1,
			Aggregate:   push.Aggregate,
			CovMerged:   push.CovMerged,
			CovExpected: push.CovExpected,
		}
		s.absorbed++
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	s.cache[push.ForEpoch] = push
	if push.ForEpoch > s.lastPush {
		s.lastPush = push.ForEpoch
	}
	floor := s.lastPush - int64(s.cfg.WindowN) - 1
	for e := range s.cache {
		if e < floor {
			delete(s.cache, e)
		}
	}
	conns := make([]*pointConn, 0, len(s.conns))
	for _, pc := range s.conns {
		conns = append(conns, pc)
	}
	doCkpt := s.ckpt != nil && (s.rounds+1)%s.ckptEvery == 0
	// The push arrived on the current upstream hop, under its codec.
	rp := s.prepare(push, s.upCodec)
	s.mu.Unlock()
	fanOut(conns, func(pc *pointConn) {
		if err := s.forwardPush(pc, rp, false); err != nil {
			s.cfg.Logf("transport: relay push to child %d: %v", pc.point, err)
			if isWedged(err) {
				// The child stopped draining pushes: evict it so the dead
				// socket cannot stall future rounds; it re-admits through
				// the resync handshake.
				_ = pc.conn.Close()
				s.mu.Lock()
				s.evictions++
				s.cond.Broadcast()
				s.mu.Unlock()
			}
		}
	})
	if doCkpt {
		s.writeCheckpoint()
	}
	s.mu.Lock()
	s.rounds++
	s.lastRoundAt = time.Now()
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// relayPush is one relay-width push ready to fan out: its payloads'
// per-child re-encodings are built once and shared by every child.
type relayPush struct {
	Push
	agg, enh func(childW, codec int) ([]byte, error)
}

// prepare wraps a relay-width push for forwarding. srcCodec is the codec
// its payloads were encoded under, or -1 when unknown (a cached push).
func (s *RelayServer) prepare(push Push, srcCodec int) relayPush {
	rp := relayPush{Push: push}
	if len(push.Aggregate) > 0 {
		rp.agg = s.eng.reencoder(push.Aggregate, srcCodec)
	}
	if len(push.Enhancement) > 0 {
		rp.enh = s.eng.reencoder(push.Enhancement, srcCodec)
	}
	return rp
}

// forwardPush sends one child a relay-width push at its width and codec.
// Compression composes exactly along the width chain, so the child
// receives bit-identically what a flat center would have sent it.
func (s *RelayServer) forwardPush(pc *pointConn, rp relayPush, intoCurrent bool) error {
	childW := s.cfg.Widths[pc.point]
	out := Push{
		ForEpoch:    rp.ForEpoch,
		CovMerged:   rp.CovMerged,
		CovExpected: rp.CovExpected,
		IntoCurrent: intoCurrent,
	}
	var err error
	if rp.agg != nil {
		if out.Aggregate, err = rp.agg(childW, pc.codec); err != nil {
			return err
		}
	}
	if !intoCurrent && rp.enh != nil {
		if out.Enhancement, err = rp.enh(childW, pc.codec); err != nil {
			return err
		}
	}
	return pc.push(out)
}

// flushUpstreamLocked sends the buffer's unsent combined uploads over the
// live upstream hop, oldest first. Callers must hold s.mu.
func (s *RelayServer) flushUpstreamLocked() error {
	if s.upEnc == nil {
		return nil
	}
	for i := range s.pending {
		p := &s.pending[i]
		if p.sent {
			continue
		}
		if err := s.encodeUpstreamLocked(p.up); err != nil {
			for j := i; j < len(s.pending); j++ {
				if !s.pending[j].sent {
					s.pending[j].attempted = true
				}
			}
			if isWedged(err) {
				// The parent stopped reading mid-window: without the write
				// deadline this encode would block forever holding s.mu and
				// wedge the whole relay. Fail the hop over to the redial
				// loop instead; the upload stays buffered (and is counted
				// in UploadsDropped only if the outage outlasts the window).
				s.upTimeouts++
				_ = s.upConn.Close()
			}
			return fmt.Errorf("upload epoch %d: %w", p.up.Epoch, err)
		}
		if p.attempted {
			s.retries++
		}
		p.sent = true
	}
	return nil
}

// capPendingLocked bounds the upstream buffer at one window of epochs,
// like the point client's. Callers must hold s.mu.
func (s *RelayServer) capPendingLocked() {
	capN := s.cfg.WindowN
	if w := s.upWelcome.WindowN; s.haveUp && w > 0 {
		capN = w
	}
	if capN <= 0 || len(s.pending) <= capN {
		return
	}
	drop := len(s.pending) - capN
	for _, p := range s.pending[:drop] {
		if !p.sent {
			s.drops++
		}
	}
	s.pending = append(s.pending[:0], s.pending[drop:]...)
}

// ---- child-facing server -------------------------------------------------

func (s *RelayServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.handle(conn); err != nil && !s.isClosed() {
				s.cfg.Logf("transport: relay connection error: %v", err)
			}
		}()
	}
}

func (s *RelayServer) handle(conn net.Conn) (err error) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic handling relay connection: %v", r)
		}
	}()
	dec := gob.NewDecoder(conn)
	var hello Hello
	if err := s.decodeBounded(conn, dec, &hello); err != nil {
		return fmt.Errorf("decode hello: %w", err)
	}
	wantW, ok := s.cfg.Widths[hello.Point]
	if !ok || hello.Kind != s.cfg.Kind || hello.W != wantW {
		return fmt.Errorf("hello mismatch from child %d: %+v", hello.Point, hello)
	}
	if hello.Shard != s.cfg.Shard {
		return fmt.Errorf("child %d dialed shard %d but this relay serves shard %d", hello.Point, hello.Shard, s.cfg.Shard)
	}
	if w := normWeight(hello.Weight); w != normWeight(s.cfg.Weights[hello.Point]) {
		return fmt.Errorf("child %d announced weight %d, topology says %d", hello.Point, w, normWeight(s.cfg.Weights[hello.Point]))
	}
	pc := &pointConn{
		point: hello.Point, conn: conn, enc: gob.NewEncoder(conn),
		codec: negotiateCodec(hello.Codec, s.ownCodec()),
		wto:   s.cfg.WriteTimeout,
	}
	welcome := s.childWelcome(hello.Point, hello.StateEpoch)
	welcome.Codec = pc.codec
	if err := pc.send(welcome); err != nil {
		return fmt.Errorf("send welcome to child %d: %w", hello.Point, err)
	}
	s.mu.Lock()
	if old, dup := s.conns[hello.Point]; dup {
		_ = old.conn.Close()
	}
	s.conns[hello.Point] = pc
	lastPush := s.lastPush
	s.cond.Broadcast()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.conns[hello.Point] == pc {
			delete(s.conns, hello.Point)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	// Resync the child exactly like a center would: a state-behind child
	// gets the backfill exchange synthesized from the push cache, anyone
	// else gets the current round re-pushed.
	K := welcome.ResumeEpoch
	if hello.StateEpoch > K {
		K = hello.StateEpoch
	}
	switch {
	case hello.StateEpoch < K && K > 1:
		if err := s.backfillChild(pc, K); err != nil {
			s.cfg.Logf("transport: relay backfill to child %d: %v", hello.Point, err)
		}
	case lastPush > 0:
		if err := s.repushTo(pc, lastPush); err != nil {
			s.cfg.Logf("transport: relay re-push to child %d: %v", hello.Point, err)
		} else {
			s.mu.Lock()
			s.repushes++
			s.cond.Broadcast()
			s.mu.Unlock()
		}
	}

	for {
		var up Upload
		if err := s.decodeBounded(conn, dec, &up); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isWedged(err) {
				s.mu.Lock()
				s.evictions++
				s.cond.Broadcast()
				s.mu.Unlock()
				return fmt.Errorf("evicting child %d: no frame within %v (half-open peer?)", hello.Point, s.cfg.ReadTimeout)
			}
			return fmt.Errorf("decode upload: %w", err)
		}
		if up.Point != hello.Point {
			return fmt.Errorf("upload claims child %d on connection of child %d", up.Point, hello.Point)
		}
		if up.Heartbeat {
			s.mu.Lock()
			s.heartbeats++
			s.cond.Broadcast()
			s.mu.Unlock()
			continue
		}
		if err := s.ingestChild(up); err != nil {
			return err
		}
	}
}

// decodeBounded decodes one child frame under the relay's read deadline
// (see CenterServer.decodeBounded).
func (s *RelayServer) decodeBounded(conn net.Conn, dec *gob.Decoder, v any) error {
	if s.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
	return dec.Decode(v)
}

// childWelcome builds the handshake reply for one child. The cluster
// shape (window, total leaf count) comes from the upstream Welcome, so
// every leaf's coverage accounting sees the same cluster a flat
// deployment would; the epoch clock is the relay's own view, which the
// upstream resync keeps current.
//
// The resume epoch is forwarded+1 — the next epoch this relay still
// needs from every child — NOT the maximum epoch any child has reached.
// A flat center can fast-forward a reconnecting point past an epoch a
// peer already uploaded (the round stays incomplete and coverage says
// so), but the relay's strict in-order barrier would then wait forever
// for the skipped epoch and wedge the whole subtree. lastPush bounds it
// from below for children that join a live cluster through a relay with
// no forwarding history of its own (it tracks the upstream clock and
// never exceeds forwarded+1 otherwise).
//
// The child's announced stateEpoch bounds what it can still retransmit:
// its upload buffer caps at one window behind its open epoch, so epochs
// at or below stateEpoch-windowN-1 are gone from it forever. If the
// forwarding position sits below that floor (this relay restarted after
// an outage longer than the window), waiting would wedge the barrier —
// give those rounds up before computing the resume epoch, so the child
// resumes exactly where it can. The core's dead-round rule
// (core.Relay.Receive) reaches the same floor passively, but only after
// every child has streamed a full window of fresh epochs; resyncing at
// the handshake recovers within one epoch instead.
func (s *RelayServer) childWelcome(child int, stateEpoch int64) Welcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	windowN, points := s.cfg.WindowN, s.eng.weight()
	if s.haveUp {
		windowN, points = s.upWelcome.WindowN, s.upWelcome.Points
	}
	if floor := stateEpoch - int64(windowN) - 1; floor > s.eng.forwarded() {
		s.eng.resyncForwarded(floor)
	}
	resume := s.eng.forwarded() + 1
	if s.lastPush > resume {
		resume = s.lastPush
	}
	return Welcome{
		WindowN:     windowN,
		Points:      points,
		ResumeEpoch: resume,
		PointEpoch:  s.eng.lastEpoch(child),
	}
}

// backfillChild replays the cached K-1 aggregate as an IntoCurrent push
// and re-pushes round K, mirroring CenterServer.backfillTo from the push
// cache instead of the window store.
func (s *RelayServer) backfillChild(pc *pointConn, K int64) error {
	s.mu.Lock()
	fill, haveFill := s.cache[K-1]
	cur, haveCur := s.cache[K]
	s.mu.Unlock()
	if haveFill && len(fill.Aggregate) > 0 {
		fill.ForEpoch = K
		if err := s.forwardPush(pc, s.prepare(fill, -1), true); err != nil {
			return err
		}
		s.mu.Lock()
		s.backfills++
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	if haveCur {
		return s.forwardPush(pc, s.prepare(cur, -1), false)
	}
	return nil
}

// repushTo re-sends the cached round forEpoch to one child.
func (s *RelayServer) repushTo(pc *pointConn, forEpoch int64) error {
	s.mu.Lock()
	push, ok := s.cache[forEpoch]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return s.forwardPush(pc, s.prepare(push, -1), false)
}

// ingestChild merges one child upload and forwards every round it
// completes. The merge and the drain are serialized under s.mu: the
// engine is shared by every child connection, and combined uploads must
// enter the retransmit buffer in strict epoch order — the additive
// upstream sequencing depends on it.
func (s *RelayServer) ingestChild(up Upload) error {
	s.mu.Lock()
	rcvErr := s.eng.receiveChild(up)
	switch {
	case errors.Is(rcvErr, core.ErrDuplicateUpload):
		s.dups++
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	case rcvErr != nil:
		s.mu.Unlock()
		return rcvErr
	default:
		s.uploads++
	}
	compact := s.upCodec >= CodecPacked
	forwarded := false
	var flushErr error
	for {
		epoch, payload, ok, err := s.eng.nextReady(compact)
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if !ok {
			break
		}
		s.pending = append(s.pending, pendingUpload{up: Upload{
			Point:  s.cfg.Relay,
			Epoch:  epoch,
			Sketch: payload,
		}})
		s.forwards++
		forwarded = true
	}
	if forwarded {
		s.capPendingLocked()
		flushErr = s.flushUpstreamLocked()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if flushErr != nil {
		// The combined upload is buffered; the redial loop retransmits it.
		s.cfg.Logf("transport: relay forward upstream: %v", flushErr)
	}
	return nil
}
