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
//	LastEpoch map
//	size only: ChainBroken ids
//	Uploads sketch store
//	size only: SentAgg and SentEnh sketch stores
//
// The topology header lets a restarted center reject a checkpoint written
// under a different configuration instead of merging incompatible
// sketches.
type centerSection struct {
	topo topology
	// lastPush is the most recent round pushed before the checkpoint.
	lastPush int64
	state    *core.CenterState
}

func (c *centerSection) encode() []byte {
	var a appender
	a.topology(c.topo)
	a.i64(c.lastPush)
	additive := c.topo.kind == KindSize
	a.epochs(c.state.LastEpoch)
	if additive {
		a.ids(c.state.ChainBroken)
	}
	a.sketches(c.state.Uploads)
	if additive {
		a.sketches(c.state.SentAgg)
		a.sketches(c.state.SentEnh)
	}
	return a.b
}

func parseCenterSection(data []byte) (centerSection, error) {
	r := reader{b: data}
	c := centerSection{topo: r.topology(), lastPush: r.i64()}
	additive := c.topo.kind == KindSize
	st := &core.CenterState{LastEpoch: r.epochs()}
	if additive {
		st.ChainBroken = r.ids()
	}
	st.Uploads = r.sketches()
	if additive {
		st.SentAgg, st.SentEnh = r.sketches(), r.sketches()
	}
	c.state = st
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
	var err error
	if sec.state, err = s.eng.ExportState(); err != nil {
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
	if err := s.eng.ImportState(sec.state); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastPush, s.pushed = sec.lastPush, sec.lastPush
	s.mu.Unlock()
	return nil
}
