package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/core"
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
	// Kind mirrors CenterConfig; the whole tree must agree.
	Kind Kind
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
	// DialTimeout bounds upstream TCP dials when UpstreamDial is nil, and
	// the Hello→Welcome handshake of every upstream connect (default 10s).
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

// RelayServer is a running aggregation relay: the child-facing half
// (downstream) serving the center protocol to its children, the
// parent-facing half (upstream) speaking the point protocol as one weighted
// child of its parent, and core.Relay merging the children's epochs in
// between.
type RelayServer struct {
	downstream
	cfg       RelayConfig
	eng       relayEngine
	histRelay *HistoryRelay // nil unless HistoryAddr is set

	// up is the hop to the parent. It shares the relay's lock
	// (downstream.mu), so merges, forwards and the hop's state change
	// atomically; its retransmit buffer holds combined uploads.
	up upstream

	// Guarded by mu. cache holds the last window of upstream pushes at
	// relay width, keyed by ForEpoch: the source of every child push,
	// fan-out and resync alike. An upstream IntoCurrent backfill is
	// absorbed here — never forwarded — because a healthy additive child
	// would double-merge it.
	cache map[int64]*relayPush
	// upResume is the newest upstream Welcome's ResumeEpoch: with
	// lastPush, the parent's clock, which bounds a child's resync.
	upResume int64
	forwards int64
	absorbed int64
	updials  int64
}

// ServeRelay starts an aggregation relay: it connects upstream (the
// initial dial must succeed), then serves its children on cfg.Addr until
// Close.
func ServeRelay(cfg RelayConfig) (*RelayServer, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	eng, err := newRelayEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := &RelayServer{cfg: cfg, eng: eng, cache: make(map[int64]*relayPush)}
	s.downstream = downstream{
		role: "relay", kind: cfg.Kind, shard: cfg.Shard,
		widths: cfg.Widths, weights: cfg.Weights,
		readTimeout: cfg.ReadTimeout, writeTimeout: cfg.WriteTimeout, logf: cfg.Logf,
		welcome:  s.childWelcome,
		pushFor:  s.cachedPush,
		ingest:   s.ingestChild,
		snapshot: s.snapshot,
	}
	s.init(cfg.CheckpointEvery)
	s.up = upstream{
		id: cfg.Relay, addr: cfg.UpstreamAddr, dial: dialer(cfg.UpstreamDial, cfg.DialTimeout), dialTimeout: cfg.DialTimeout,
		wto: cfg.WriteTimeout, hbEvery: cfg.HeartbeatEvery,
		backoff: cfg.RedialBackoff, backoffMax: cfg.RedialBackoffMax, sleep: time.Sleep,
		hello:          s.upstreamHello,
		welcomed:       s.upstreamWelcomed,
		heartbeatEpoch: s.eng.Forwarded,
		push:           s.handleUpstreamPush,
		changed:        s.cond.Broadcast,
		lost:           s.redialUpstream,
		mu:             &s.mu,
	}
	if cfg.CheckpointDir != "" {
		if err := s.openCheckpoint(cfg.CheckpointDir, fmt.Sprintf("relay-%d", cfg.Relay), s.restoreCheckpoint); err != nil {
			return nil, err
		}
	}
	if err := s.up.connect(); err != nil {
		return nil, err
	}
	if err := s.up.flush(); err != nil {
		cfg.Logf("transport: relay upstream flush: %v", err)
	}
	ln := cfg.Listener
	if cfg.HistoryAddr != "" && cfg.HistoryUpstreamAddr == "" {
		err = fmt.Errorf("transport: relay HistoryAddr set without HistoryUpstreamAddr")
	} else if cfg.HistoryAddr != "" {
		s.histRelay, err = ServeHistoryRelay(cfg.HistoryAddr, cfg.HistoryUpstreamAddr)
	}
	if err == nil && ln == nil {
		if ln, err = net.Listen("tcp", cfg.Addr); err != nil {
			err = fmt.Errorf("transport: relay listen: %w", err)
		}
	}
	if err != nil {
		if s.histRelay != nil {
			_ = s.histRelay.Close()
		}
		_ = s.up.close()
		s.up.wg.Wait()
		return nil, err
	}
	s.serve(ln)
	return s, nil
}

// Stats returns a snapshot of the relay's counters.
func (s *RelayServer) Stats() RelayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RelayStats{
		ConnectedChildren:     len(s.conns),
		UpstreamConnected:     s.up.live,
		UploadsReceived:       s.uploads,
		UploadsDuplicate:      s.dups,
		Forwards:              s.forwards,
		ForwardsRetried:       s.up.retried.Load(),
		ForwardsDropped:       s.up.dropped.Load(),
		UploadsDropped:        s.up.dropped.Load(),
		RoundsForwarded:       s.rounds,
		Repushes:              s.repushes,
		Backfills:             s.backfills,
		BackfillsAbsorbed:     s.absorbed,
		UpstreamDials:         s.updials,
		CheckpointsWritten:    s.checkpoints,
		RestoredGeneration:    s.restoredGen,
		HeartbeatsReceived:    s.heartbeats,
		HeartbeatsSent:        s.up.hbSent.Load(),
		Evictions:             s.evictions,
		UpstreamWriteTimeouts: s.up.writeTimeouts.Load(),
		LastPushEpoch:         s.lastPush,
		LastRoundAt:           s.lastRoundAt,
	}
}

// WaitUploads blocks until the relay has merged (or idempotently dropped)
// at least n child uploads, or the relay closes.
func (s *RelayServer) WaitUploads(n int64) bool {
	return s.waitCond(0, func() bool { return s.uploads+s.dups >= n })
}

// WaitForwards blocks until at least n combined uploads have been handed
// upstream (buffered counts), or the relay closes.
func (s *RelayServer) WaitForwards(n int64) bool {
	return s.waitCond(0, func() bool { return s.forwards >= n })
}

// WaitUpstream blocks until the upstream hop is live (or not, per want),
// or the relay closes.
func (s *RelayServer) WaitUpstream(want bool) bool {
	return s.waitCond(0, func() bool { return (s.up.live) == want })
}

// Close stops the relay: the upstream hop, the child listener and every
// child connection.
func (s *RelayServer) Close() error {
	_ = s.up.close()
	err := s.downstream.close()
	s.up.wg.Wait()
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

// ---- upstream hop --------------------------------------------------------

// upstreamHello announces the relay to its parent as one weighted child:
// the maximum child width, the subtree's leaf count, and the newest
// upstream round seen as its state epoch.
func (s *RelayServer) upstreamHello() Hello {
	s.mu.Lock()
	stateEpoch := s.lastPush
	s.mu.Unlock()
	return Hello{
		Point: s.cfg.Relay, Kind: s.cfg.Kind, W: s.eng.Width(),
		StateEpoch: stateEpoch, Weight: s.eng.TotalWeight(), Shard: s.cfg.Shard,
	}
}

// upstreamWelcomed resynchronizes the forwarding position with the parent,
// under the relay lock: the parent already ingested our combined uploads
// through PointEpoch, so epochs at or below it must never be rebuilt and
// re-forwarded (an additive center would drop them as duplicates anyway;
// this keeps the relay from holding dead rounds). Sent epochs after it
// were lost with the parent's state, and upstream has requeued them.
func (s *RelayServer) upstreamWelcomed(w Welcome) {
	s.eng.ResyncForwarded(w.PointEpoch)
	s.upResume = w.ResumeEpoch
	s.updials++
}

// redialUpstream is the relay's retry policy. Unlike a point — whose epoch
// clock drives explicit Redials — a relay has no clock of its own, so a
// lost hop reconnects in the background, with backoff, until Close.
func (s *RelayServer) redialUpstream() {
	if err := s.up.redial(0); err != nil && !errors.Is(err, errUpstreamClosed) {
		s.cfg.Logf("transport: relay upstream flush: %v", err)
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
		s.cache[push.ForEpoch-1] = s.prepare(Push{
			ForEpoch:    push.ForEpoch - 1,
			Aggregate:   push.Aggregate,
			CovMerged:   push.CovMerged,
			CovExpected: push.CovExpected,
		})
		s.absorbed++
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	}
	rp := s.prepare(push)
	s.pushRound(push.ForEpoch, func() {
		s.cache[push.ForEpoch] = rp
		floor := s.lastPush - int64(s.cfg.WindowN) - 1
		for e := range s.cache {
			if e < floor {
				delete(s.cache, e)
			}
		}
	})
	return nil
}

// relayPush is one relay-width push ready to forward: its payloads'
// per-width re-encodings are built once and shared by every child.
type relayPush struct {
	Push
	agg, enh func(childW int) ([]byte, error)
}

// prepare wraps a relay-width push for forwarding.
func (s *RelayServer) prepare(push Push) *relayPush {
	rp := &relayPush{Push: push}
	if len(push.Aggregate) > 0 {
		rp.agg = s.eng.reencoder(push.Aggregate)
	}
	if len(push.Enhancement) > 0 {
		rp.enh = s.eng.reencoder(push.Enhancement)
	}
	return rp
}

// cachedPush builds child c's push for round forEpoch from the push cache
// at the child's width. Compression composes exactly along the width
// chain, so the child receives bit-identically what a flat center would
// have sent it.
func (s *RelayServer) cachedPush(c *childConn, forEpoch int64) (Push, bool, error) {
	s.mu.Lock()
	rp, ok := s.cache[forEpoch]
	s.mu.Unlock()
	if !ok {
		return Push{}, false, nil
	}
	childW := s.cfg.Widths[c.id]
	out := Push{ForEpoch: rp.ForEpoch, CovMerged: rp.CovMerged, CovExpected: rp.CovExpected}
	var err error
	if rp.agg != nil {
		if out.Aggregate, err = rp.agg(childW); err != nil {
			return out, true, err
		}
	}
	if rp.enh != nil {
		out.Enhancement, err = rp.enh(childW)
	}
	return out, true, err
}

// ---- child-facing server -------------------------------------------------

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
//
// A state epoch is one child's claim: it moves the position at most one
// window past the parent's clock, the newer of the upstream Welcome's
// ResumeEpoch and the newest push. A claim past that is ignored, and the
// dead-round rule reaches the floor from the uploads themselves; taken,
// one Hello near the epoch limit sealed every round below it.
func (s *RelayServer) childWelcome(h Hello) Welcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	windowN := int64(s.up.windowN)
	parent := max(s.upResume, s.lastPush)
	if floor := h.StateEpoch - windowN - 1; floor > s.eng.Forwarded() && floor-parent <= windowN {
		s.eng.ResyncForwarded(floor)
	}
	return Welcome{
		WindowN:     s.up.windowN,
		Points:      s.up.points,
		ResumeEpoch: max(s.eng.Forwarded()+1, s.lastPush),
		PointEpoch:  s.eng.LastEpoch(h.Point),
	}
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
	forwarded := false
	var flushErr error
	for {
		epoch, payload, ok, err := s.eng.nextReady()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if !ok {
			break
		}
		s.up.pending = append(s.up.pending, pendingUpload{up: Upload{
			Point:  s.cfg.Relay,
			Epoch:  epoch,
			Sketch: payload,
		}})
		s.forwards++
		forwarded = true
	}
	if forwarded {
		s.up.capLocked()
		flushErr = s.up.flushLocked()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if flushErr != nil {
		// The combined upload is buffered; the redial loop retransmits it.
		s.cfg.Logf("transport: relay forward upstream: %v", flushErr)
	}
	return nil
}
