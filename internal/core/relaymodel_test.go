package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// relayModel is the naive reference for a relay: a per-epoch list of
// child cells, forwarded in epoch order once every child is present, as
// the merge at the relay's width of every cell expanded to it. A round
// every child has moved a window past is abandoned, and a round more
// than a window ahead of the forwarding position is dropped.
type relayModel[S Sketch[S]] struct {
	n         int64
	children  []int
	width     int
	forwarded int64
	last      map[int]int64
	cells     map[int64]map[int]S
}

func (m *relayModel[S]) seal(epoch int64) {
	m.forwarded = epoch
	for e := range m.cells {
		if e <= epoch {
			delete(m.cells, e)
		}
	}
}

func (m *relayModel[S]) receive(child int, e int64, up S) error {
	m.last[child] = max(m.last[child], e)
	if len(m.last) == len(m.children) {
		lo := e
		for _, l := range m.last {
			lo = min(lo, l)
		}
		if floor := lo - m.n; floor > m.forwarded {
			m.seal(floor)
		}
	}
	if e <= m.forwarded {
		return ErrDuplicateUpload
	}
	if _, dup := m.cells[e][child]; dup {
		return ErrDuplicateUpload
	}
	if m.cells[e] == nil {
		m.cells[e] = map[int]S{}
	}
	m.cells[e][child] = up.Clone()
	for k := range m.cells {
		if k > m.forwarded+m.n+1 {
			delete(m.cells, k)
		}
	}
	return nil
}

// combined merges an epoch's cells, each expanded to the relay width, in
// child order.
func (m *relayModel[S]) combined(t *testing.T, e int64) []byte {
	t.Helper()
	var acc S
	for _, id := range m.children {
		cell, ok := m.cells[e][id]
		if !ok {
			continue
		}
		ex, err := cell.ExpandTo(m.width)
		if err != nil {
			t.Fatal(err)
		}
		if IsNil(acc) {
			acc = ex
		} else if err := acc.Merge(ex); err != nil {
			t.Fatal(err)
		}
	}
	return marshalOrFail(t, acc)
}

func (m *relayModel[S]) next(t *testing.T) (int64, []byte, bool) {
	e := m.forwarded + 1
	if len(m.cells[e]) < len(m.children) {
		return 0, nil, false
	}
	b := m.combined(t, e)
	delete(m.cells, e)
	m.forwarded = e
	return e, b, true
}

func (m *relayModel[S]) state(t *testing.T) *RelayState {
	st := &RelayState{Forwarded: m.forwarded, LastEpoch: maps.Clone(m.last), Pending: map[int64]RelayRoundState{}}
	for e, cells := range m.cells {
		st.Pending[e] = RelayRoundState{Merged: m.combined(t, e), Reported: sortedKeysOf(cells)}
	}
	return st
}

// sortedKeysOf returns m's keys in ascending order.
func sortedKeysOf[K int | int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func marshalOrFail[S Sketch[S]](t *testing.T, sk S) []byte {
	t.Helper()
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameRelayState compares two relay states field by field, sketches by
// their bytes.
func sameRelayState(got, want *RelayState) error {
	if got.Forwarded != want.Forwarded {
		return fmt.Errorf("forwarded %d, want %d", got.Forwarded, want.Forwarded)
	}
	if !maps.Equal(got.LastEpoch, want.LastEpoch) {
		return fmt.Errorf("last epochs %v, want %v", got.LastEpoch, want.LastEpoch)
	}
	if len(got.Pending) != len(want.Pending) {
		return fmt.Errorf("%d pending rounds %v, want %d %v", len(got.Pending), sortedKeysOf(got.Pending),
			len(want.Pending), sortedKeysOf(want.Pending))
	}
	for e, w := range want.Pending {
		g, ok := got.Pending[e]
		if !ok {
			return fmt.Errorf("round %d missing", e)
		}
		if !slices.Equal(g.Reported, w.Reported) {
			return fmt.Errorf("round %d reported %v, want %v", e, g.Reported, w.Reported)
		}
		if !bytes.Equal(g.Merged, w.Merged) {
			return fmt.Errorf("round %d merged bytes differ", e)
		}
	}
	return nil
}

// runRelayModel drives a relay and the reference through one seeded
// random interleaving of child uploads (any child order, duplicates,
// stale epochs, epochs past the ceiling), drains, forwarding resyncs and
// export/import round trips into a fresh relay mid-round. Every upload
// verdict, every forwarded sketch's bytes and every exported state must
// match the reference.
func runRelayModel[S Sketch[S]](t *testing.T, seed int64, protos map[int]S, cfg EngineConfig[S], cell func(rng *rand.Rand, child int) S) {
	const n, steps = 4, 600
	rng := rand.New(rand.NewSource(seed))
	newRelay := func() *Relay[S] {
		r, err := NewRelay(n, protos, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := newRelay()
	m := &relayModel[S]{n: n, children: sortedKeysOf(protos), last: map[int]int64{}, cells: map[int64]map[int]S{}}
	for _, p := range protos {
		m.width = max(m.width, p.Width())
	}
	forwards := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 13:
			child := m.children[rng.Intn(len(m.children))]
			e := max(1, m.forwarded+int64(rng.Intn(n+6))-2)
			up := cell(rng, child)
			want := m.receive(child, e, up)
			got := r.Receive(child, e, up)
			if !errors.Is(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("seed %d step %d: Receive(%d, %d) = %v, want %v", seed, step, child, e, got, want)
			}
			up.Reset() // the relay must not have kept the upload
		case op < 17:
			for {
				we, wb, wok := m.next(t)
				ge, gsk, gok := r.Next()
				if gok != wok || ge != we {
					t.Fatalf("seed %d step %d: Next = (%d, %v), want (%d, %v)", seed, step, ge, gok, we, wok)
				}
				if !wok {
					break
				}
				if !bytes.Equal(marshalOrFail(t, gsk), wb) {
					t.Fatalf("seed %d step %d: round %d forwarded other bytes than the reference", seed, step, we)
				}
				forwards++
			}
		case op < 18:
			e := m.forwarded + int64(rng.Intn(4))
			m.resync(e)
			r.ResyncForwarded(e)
		default:
			st, err := r.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRelayState(st, m.state(t)); err != nil {
				t.Fatalf("seed %d step %d: export: %v", seed, step, err)
			}
			r = newRelay()
			if err := r.ImportState(st); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.Forwarded(); got != m.forwarded {
			t.Fatalf("seed %d step %d: forwarded %d, want %d", seed, step, got, m.forwarded)
		}
	}
	if forwards == 0 {
		t.Fatalf("seed %d: no round was forwarded", seed)
	}
}

func (m *relayModel[S]) resync(e int64) {
	if e > m.forwarded {
		m.seal(e)
	}
}

// TestRelayTreeMatchesReference holds the relay to the naive reference
// over seeded random interleavings, for both merge algebras and children
// of three widths.
func TestRelayTreeMatchesReference(t *testing.T) {
	cm := func(w int) countmin.Params { return countmin.Params{D: 2, W: w, Seed: 3} }
	rp := func(w int) rskt.Params { return rskt.Params{W: w, M: 8, Seed: 3} }
	for seed := int64(1); seed <= 6; seed++ {
		size := map[int]*countmin.Sketch{0: countmin.New(cm(16)), 1: countmin.New(cm(32)), 2: countmin.New(cm(64))}
		runRelayModel(t, seed, size, EngineConfig[*countmin.Sketch]{Design: "size", Mode: ModeDelta, Additive: true},
			func(rng *rand.Rand, child int) *countmin.Sketch {
				sk := countmin.New(cm(16 << child))
				for i := 0; i < 4; i++ {
					sk.Add(uint64(rng.Intn(40)), int64(1+rng.Intn(5)))
				}
				return sk
			})
		spread := map[int]*rskt.Sketch{0: rskt.New(rp(8)), 1: rskt.New(rp(16)), 2: rskt.New(rp(32))}
		runRelayModel(t, seed, spread, EngineConfig[*rskt.Sketch]{Design: "spread", Mode: ModeDelta},
			func(rng *rand.Rand, child int) *rskt.Sketch {
				sk := rskt.New(rp(8 << child))
				for i := 0; i < 6; i++ {
					sk.Record(uint64(rng.Intn(20)), uint64(rng.Intn(1000)))
				}
				return sk
			})
	}
}
