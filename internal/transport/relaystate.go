package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
)

// Relay-side durability mirrors the center's: the relay's recovery state
// travels as one gob blob in a durable checkpoint container (section
// "relay"). A restarted relay recovers its partially merged rounds, its
// forwarding position, the push cache it resyncs children from, and the
// upstream retransmit buffer — so a crash loses at most the work since
// the last checkpoint, which the upstream backfill exchange and the
// children's own retransmit buffers then repair.
type relayCheckpoint struct {
	Kind    Kind
	WindowN int
	Widths  map[int]int
	Weights map[int]int
	M       int
	D       int
	Seed    uint64
	Shard   int
	Relay   int

	LastPush int64
	Cache    map[int64]Push
	// Pending is the upstream retransmit buffer. Sent flags are preserved:
	// the post-restart Welcome's PointEpoch decides what to requeue, same
	// as a live reconnect.
	Pending []relayPendingUpload
	State   *core.RelayState
}

// relayPendingUpload is pendingUpload with exported fields for gob.
type relayPendingUpload struct {
	Up        Upload
	Attempted bool
	Sent      bool
}

// snapshot captures the relay's checkpoint state under the relay lock.
func (s *RelayServer) snapshot() (any, error) {
	ck := relayCheckpoint{
		Kind:    s.cfg.Kind,
		WindowN: s.cfg.WindowN,
		Widths:  s.cfg.Widths,
		Weights: s.cfg.Weights,
		M:       s.cfg.M,
		D:       s.cfg.D,
		Seed:    s.cfg.Seed,
		Shard:   s.cfg.Shard,
		Relay:   s.cfg.Relay,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.eng.exportState()
	if err != nil {
		return nil, err
	}
	ck.State = st
	ck.LastPush = s.lastPush
	ck.Cache = make(map[int64]Push, len(s.cache))
	for e, rp := range s.cache {
		ck.Cache[e] = rp.Push
	}
	ck.Pending = make([]relayPendingUpload, len(s.up.pending))
	for i, p := range s.up.pending {
		ck.Pending[i] = relayPendingUpload{Up: p.up, Attempted: p.attempted, Sent: p.sent}
	}
	return ck, nil
}

// restoreCheckpoint replaces the relay's fresh state with a checkpoint
// section, after verifying it was written under the same topology. Called
// from ServeRelay before the upstream hop or the listener exist.
func (s *RelayServer) restoreCheckpoint(data []byte) error {
	var ck relayCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if ck.Kind != s.cfg.Kind || ck.WindowN != s.cfg.WindowN || ck.Seed != s.cfg.Seed {
		return fmt.Errorf("checkpoint topology (%s, n=%d, seed=%d) does not match the configured (%s, n=%d, seed=%d)",
			ck.Kind, ck.WindowN, ck.Seed, s.cfg.Kind, s.cfg.WindowN, s.cfg.Seed)
	}
	if ck.M != s.cfg.M || ck.D != s.cfg.D {
		return fmt.Errorf("checkpoint parameters (M=%d, D=%d) do not match the configured (M=%d, D=%d)",
			ck.M, ck.D, s.cfg.M, s.cfg.D)
	}
	if ck.Relay != s.cfg.Relay || ck.Shard != s.cfg.Shard {
		return fmt.Errorf("checkpoint is for relay %d shard %d, configured relay %d shard %d",
			ck.Relay, ck.Shard, s.cfg.Relay, s.cfg.Shard)
	}
	if len(ck.Widths) != len(s.cfg.Widths) {
		return fmt.Errorf("checkpoint has %d children, configured %d", len(ck.Widths), len(s.cfg.Widths))
	}
	for id, w := range s.cfg.Widths {
		if ck.Widths[id] != w {
			return fmt.Errorf("checkpoint width %d for child %d, configured %d", ck.Widths[id], id, w)
		}
		if normWeight(ck.Weights[id]) != normWeight(s.cfg.Weights[id]) {
			return fmt.Errorf("checkpoint weight %d for child %d, configured %d",
				normWeight(ck.Weights[id]), id, normWeight(s.cfg.Weights[id]))
		}
	}
	if ck.State != nil {
		if err := s.eng.importState(ck.State); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastPush, s.pushed = ck.LastPush, ck.LastPush
	for e, p := range ck.Cache {
		s.cache[e] = s.prepare(p)
	}
	s.up.pending = make([]pendingUpload, len(ck.Pending))
	for i, p := range ck.Pending {
		s.up.pending[i] = pendingUpload{up: p.Up, attempted: p.Attempted, sent: p.Sent}
	}
	return nil
}
