package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
)

// Center-side durability: the center's whole recovery state — window
// store, push position, and the topology that produced them — travels as
// one gob blob inside a durable checkpoint container (internal/durable,
// section "center"). The topology fields let a restarted center reject a
// checkpoint written under a different configuration instead of merging
// incompatible sketches.
type centerCheckpoint struct {
	Kind    Kind
	WindowN int
	Widths  map[int]int
	M       int
	D       int
	Seed    uint64
	// Weights/Shard/Delta pin the tree/shard topology (gob omits the zero
	// values, so flat centers keep reading their pre-tree checkpoints).
	Weights map[int]int
	Shard   int
	Delta   bool
	// LastPush is the most recent round pushed before the checkpoint.
	LastPush int64
	// Exactly one of Spread/Size is set, matching Kind.
	Spread *core.SpreadCenterState
	Size   *core.SizeCenterState
}

// snapshot captures the center's checkpoint state: the topology, the
// newest round whose fan-out finished, and the window store.
func (s *CenterServer) snapshot() (any, error) {
	ck := centerCheckpoint{
		Kind:    s.cfg.Kind,
		WindowN: s.cfg.WindowN,
		Widths:  s.cfg.Widths,
		M:       s.cfg.M,
		D:       s.cfg.D,
		Seed:    s.cfg.Seed,
		Weights: s.cfg.Weights,
		Shard:   s.cfg.Shard,
		Delta:   s.cfg.DeltaUploads,
	}
	s.mu.Lock()
	ck.LastPush = s.pushed
	s.mu.Unlock()
	if err := s.eng.exportState(&ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// restoreCheckpoint replaces the center's fresh state with a checkpoint
// section, after verifying it was written under the same topology. Called
// from ServeCenter before the listener exists.
func (s *CenterServer) restoreCheckpoint(data []byte) error {
	var ck centerCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if ck.Kind != s.cfg.Kind || ck.WindowN != s.cfg.WindowN || ck.Seed != s.cfg.Seed {
		return fmt.Errorf("checkpoint topology (%s, n=%d, seed=%d) does not match the configured (%s, n=%d, seed=%d)",
			ck.Kind, ck.WindowN, ck.Seed, s.cfg.Kind, s.cfg.WindowN, s.cfg.Seed)
	}
	// The unused parameter is zero in both the config and the checkpoint,
	// so both checks apply regardless of design.
	if ck.M != s.cfg.M {
		return fmt.Errorf("checkpoint M=%d does not match the configured M=%d", ck.M, s.cfg.M)
	}
	if ck.D != s.cfg.D {
		return fmt.Errorf("checkpoint D=%d does not match the configured D=%d", ck.D, s.cfg.D)
	}
	if len(ck.Widths) != len(s.cfg.Widths) {
		return fmt.Errorf("checkpoint has %d points, configured %d", len(ck.Widths), len(s.cfg.Widths))
	}
	for id, w := range s.cfg.Widths {
		if ck.Widths[id] != w {
			return fmt.Errorf("checkpoint width %d for point %d, configured %d", ck.Widths[id], id, w)
		}
		if normWeight(ck.Weights[id]) != normWeight(s.cfg.Weights[id]) {
			return fmt.Errorf("checkpoint weight %d for point %d, configured %d",
				normWeight(ck.Weights[id]), id, normWeight(s.cfg.Weights[id]))
		}
	}
	if ck.Shard != s.cfg.Shard {
		return fmt.Errorf("checkpoint is for shard %d, configured shard %d", ck.Shard, s.cfg.Shard)
	}
	if ck.Delta != s.cfg.DeltaUploads {
		return fmt.Errorf("checkpoint upload mode (delta=%t) does not match the configured (delta=%t)", ck.Delta, s.cfg.DeltaUploads)
	}
	if err := s.eng.importState(&ck); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastPush, s.pushed = ck.LastPush, ck.LastPush
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
