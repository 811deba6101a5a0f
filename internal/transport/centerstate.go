package transport

import (
	"fmt"

	"repro/internal/core"
)

// Center-side durability: the center's whole recovery state — window
// store, push position, and the topology that produced them — travels as
// one section inside a durable checkpoint container (internal/durable,
// section "center"):
//
//	topology header (checkpoint.go)
//	i64  LastPush
//	spread: LastEpoch map, Uploads sketch store
//	size:   LastEpoch map, ChainBroken ids, Deltas, SentAgg and SentEnh
//	        sketch stores
//
// The topology header lets a restarted center reject a checkpoint written
// under a different configuration instead of merging incompatible
// sketches.
type centerSection struct {
	topo topology
	// lastPush is the most recent round pushed before the checkpoint.
	lastPush int64
	// Exactly one of spread/size is set, matching topo.kind.
	spread *core.SpreadCenterState
	size   *core.SizeCenterState
}

func (c *centerSection) encode() []byte {
	var a appender
	a.topology(c.topo)
	a.i64(c.lastPush)
	switch c.topo.kind {
	case KindSpread:
		a.epochs(c.spread.LastEpoch)
		a.sketches(c.spread.Uploads)
	case KindSize:
		a.epochs(c.size.LastEpoch)
		a.ids(c.size.ChainBroken)
		a.sketches(c.size.Deltas)
		a.sketches(c.size.SentAgg)
		a.sketches(c.size.SentEnh)
	}
	return a.b
}

func parseCenterSection(data []byte) (centerSection, error) {
	r := reader{b: data}
	c := centerSection{topo: r.topology(), lastPush: r.i64()}
	switch c.topo.kind {
	case KindSpread:
		c.spread = &core.SpreadCenterState{LastEpoch: r.epochs(), Uploads: r.sketches()}
	case KindSize:
		c.size = &core.SizeCenterState{LastEpoch: r.epochs(), ChainBroken: r.ids(),
			Deltas: r.sketches(), SentAgg: r.sketches(), SentEnh: r.sketches()}
	}
	if err := r.done(); err != nil {
		return c, err
	}
	return c, canonical(data, c.encode)
}

// topology is the center's configured checkpoint topology.
func (s *CenterServer) topology() topology {
	return topology{
		kind: s.cfg.Kind, windowN: s.cfg.WindowN, m: s.cfg.M, d: s.cfg.D, seed: s.cfg.Seed,
		shard: s.cfg.Shard, delta: s.cfg.DeltaUploads, widths: s.cfg.Widths, weights: s.cfg.Weights,
	}
}

// snapshot captures the center's checkpoint section: the topology, the
// newest round whose fan-out finished, and the window store.
func (s *CenterServer) snapshot() ([]byte, error) {
	sec := centerSection{topo: s.topology()}
	s.mu.Lock()
	sec.lastPush = s.pushed
	s.mu.Unlock()
	if err := s.eng.exportState(&sec); err != nil {
		return nil, err
	}
	return sec.encode(), nil
}

// restoreCheckpoint replaces the center's fresh state with a checkpoint
// section, after verifying it was written under the same topology. Called
// from ServeCenter before the listener exists.
func (s *CenterServer) restoreCheckpoint(data []byte) error {
	sec, err := parseCenterSection(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if err := sec.topo.match(s.topology()); err != nil {
		return err
	}
	if err := s.eng.importState(&sec); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastPush, s.pushed = sec.lastPush, sec.lastPush
	s.mu.Unlock()
	return nil
}

// recomputeReceived rebuilds the per-epoch upload counters the crashed
// process lost, for epochs the restored window holds but the restored
// rounds had not pushed yet. It returns, in ascending order, the epochs
// every point had already reported: their rounds never fired, so the
// caller fires them before accepting connections.
func (s *CenterServer) recomputeReceived() []int64 {
	maxE := s.eng.maxEpoch()
	var complete []int64
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.lastPush
	if start < 1 {
		start = 1
	}
	for e := start; e <= maxE; e++ {
		n := 0
		for id := range s.cfg.Widths {
			if s.eng.reported(id, e) {
				n++
			}
		}
		switch {
		case n == 0:
		case n >= len(s.cfg.Widths):
			complete = append(complete, e)
		default:
			s.received[e] = n
		}
	}
	return complete
}
