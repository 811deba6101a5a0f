package transport

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Relay-side durability mirrors the center's: the relay's recovery state
// travels as one section in a durable checkpoint container (section
// "relay"). A restarted relay recovers its partially merged rounds, its
// forwarding position, the push cache it resyncs children from, and the
// upstream retransmit buffer — so a crash loses at most the work since
// the last checkpoint, which the upstream backfill exchange and the
// children's own retransmit buffers then repair. The section is
//
//	topology header (checkpoint.go)
//	i64  LastPush
//	u32  cached pushes, then each as a Push frame, ascending ForEpoch
//	     the upstream retransmit buffer, in the point's uploads layout
//	i64  Forwarded
//	     LastEpoch map
//	u32  pending rounds, then per round in ascending epoch order: i64
//	     epoch, the merged sketch as a blob, the reported children as ids
type relaySection struct {
	topo     topology
	lastPush int64
	cache    []Push
	// pending is the upstream retransmit buffer. Sent flags are preserved:
	// the post-restart Welcome's PointEpoch decides what to requeue, same
	// as a live reconnect.
	pending []pendingUpload
	state   core.RelayState
}

func (c *relaySection) encode() []byte {
	var a appender
	a.topology(c.topo)
	a.i64(c.lastPush)
	a.u32(len(c.cache))
	for _, p := range c.cache {
		a.b = appendPush(a.b, p)
	}
	a.uploads(c.pending)
	a.i64(c.state.Forwarded)
	a.epochs(c.state.LastEpoch)
	a.u32(len(c.state.Pending))
	for _, e := range sortedKeys(c.state.Pending) {
		a.i64(e)
		a.blob(c.state.Pending[e].Merged)
		a.ids(c.state.Pending[e].Reported)
	}
	return a.b
}

func parseRelaySection(data []byte) (relaySection, error) {
	r := reader{b: data}
	c := relaySection{topo: r.topology(), lastPush: r.i64()}
	c.cache = make([]Push, r.count(5+pushHeader))
	for i := range c.cache {
		p, err := parsePush(r.frame(framePush))
		if r.err == nil && err != nil {
			r.fail("cached push: %v", err)
		}
		c.cache[i] = p
	}
	c.pending = r.uploads(c.topo.node)
	c.state.Forwarded, c.state.LastEpoch = r.i64(), r.epochs()
	n := r.count(16)
	c.state.Pending = make(map[int64]core.RelayRoundState, n)
	for i := 0; i < n; i++ {
		e := r.i64()
		c.state.Pending[e] = core.RelayRoundState{Merged: r.blob(), Reported: r.ids()}
	}
	if err := r.done(); err != nil {
		return c, err
	}
	return c, canonical(data, c.encode)
}

// topology is the relay's configured checkpoint topology.
func (s *RelayServer) topology() topology {
	return topology{
		kind: s.cfg.Kind, windowN: s.cfg.WindowN, m: s.cfg.M, d: s.cfg.D, seed: s.cfg.Seed,
		shard: s.cfg.Shard, node: s.cfg.Relay, widths: s.cfg.Widths, weights: s.cfg.Weights,
	}
}

// snapshot captures the relay's state under the relay lock and encodes its
// checkpoint section.
func (s *RelayServer) snapshot() ([]byte, error) {
	sec := relaySection{topo: s.topology()}
	s.mu.Lock()
	st, err := s.eng.ExportState()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sec.state = *st
	sec.lastPush = s.lastPush
	for _, e := range sortedKeys(s.cache) {
		sec.cache = append(sec.cache, s.cache[e].Push)
	}
	// The entries' payloads are never written after buffering, so a copy
	// of the slice is a stable snapshot to encode outside the lock.
	sec.pending = slices.Clone(s.up.pending)
	s.mu.Unlock()
	return sec.encode(), nil
}

// restoreCheckpoint replaces the relay's fresh state with a checkpoint
// section, after verifying it was written under the same topology. Called
// from ServeRelay before the upstream hop or the listener exist.
func (s *RelayServer) restoreCheckpoint(data []byte) error {
	sec, err := parseRelaySection(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if err := sec.topo.match(s.topology()); err != nil {
		return err
	}
	if err := s.eng.ImportState(&sec.state); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastPush, s.pushed = sec.lastPush, sec.lastPush
	for _, p := range sec.cache {
		s.cache[p.ForEpoch] = s.prepare(p)
	}
	s.up.pending = sec.pending
	return nil
}
