package rskt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hll"
)

// flowInColumn returns a flow whose column in a sketch of params p is col.
func flowInColumn(t *testing.T, p Params, col int) uint64 {
	t.Helper()
	s := Sketch{params: p}
	s.initDerived()
	for f := uint64(0); f < 1<<20; f++ {
		if s.column(f) == col {
			return f
		}
	}
	t.Fatalf("no flow in column %d of %+v", col, p)
	return 0
}

// TestFlowProjectionMatchesDecode is the referee for the indexed reader:
// for every sketch, the projection ProjectEncoded reads through the block
// index must equal the full decode's Project register for register, and
// the union estimate over an epoch set's projections must equal, in
// Float64bits, EstimateUnion over the fully decoded sketches. Sketches
// cover empty, sparse, dense and saturated rows, rows of mixed modes, odd
// M (columns straddling index blocks) and the first and last column.
func TestFlowProjectionMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	saturate := func(s *Sketch) {
		for u := range s.rows {
			for i := range s.rows[u] {
				s.rows[u][i] = hll.MaxRegisterValue
			}
		}
	}
	fill := func(packets int) func(*Sketch) {
		return func(s *Sketch) {
			for i := 0; i < packets; i++ {
				s.Record(uint64(rng.Intn(4*s.params.W+1)), rng.Uint64())
			}
		}
	}
	mixed := func(s *Sketch) { // row 0 dense, row 1 empty
		fill(40 * s.params.W * s.params.M)(s)
		s.rows[1].Reset()
	}
	shapes := []Params{{W: 1, M: 8}, {W: 7, M: 3}, {W: 100, M: 3}, {W: 64, M: 16}, {W: 100, M: 128}, {W: 37, M: 24}}
	fills := map[string]func(*Sketch){
		"empty": func(*Sketch) {}, "sparse": fill(50), "dense": fill(5000),
		"saturated": saturate, "mixed-modes": mixed,
	}
	for _, p := range shapes {
		p.Seed = rng.Uint64()
		for name, fillFn := range fills {
			t.Run(fmt.Sprintf("%dx%d/%s", p.W, p.M, name), func(t *testing.T) {
				const epochs = 4
				var full, proj []*Sketch
				var encs, idxs [][]byte
				for e := 0; e < epochs; e++ {
					s := New(p)
					fillFn(s)
					enc, err := s.MarshalBinaryCompact()
					if err != nil {
						t.Fatal(err)
					}
					idx, err := AppendIndex(nil, enc)
					if err != nil {
						t.Fatal(err)
					}
					var dec Sketch
					if err := dec.UnmarshalBinary(enc); err != nil {
						t.Fatal(err)
					}
					full = append(full, &dec)
					encs, idxs = append(encs, enc), append(idxs, idx)
				}
				flows := []uint64{flowInColumn(t, p, 0), flowInColumn(t, p, p.W-1)}
				for i := 0; i < 8; i++ {
					flows = append(flows, rng.Uint64())
				}
				for _, f := range flows {
					proj = proj[:0]
					for e := range encs {
						got, err := ProjectEncoded(encs[e], idxs[e], p.W, p.M, f)
						if err != nil {
							t.Fatalf("flow %d epoch %d: %v", f, e, err)
						}
						if want := full[e].Project(f); !got.Equal(want) {
							t.Fatalf("flow %d epoch %d: indexed projection differs from the decoded one", f, e)
						}
						proj = append(proj, got)
					}
					want := full[0].EstimateUnion(f, full[1:])
					got := proj[0].EstimateUnion(f, proj[1:])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("flow %d: projections estimate %v, decoded sketches %v", f, got, want)
					}
				}
			})
		}
	}
}

// TestProjectRejectsHostileIndex checks the reader's own guards: an
// encoding of other dimensions, an index of the wrong length, and an
// index whose entries are shifted are errors, never a wrong answer or a
// panic.
func TestProjectRejectsHostileIndex(t *testing.T) {
	p := Params{W: 64, M: 16, Seed: 3}
	s := New(p)
	for i := 0; i < 3000; i++ {
		s.Record(uint64(i%90), uint64(i))
	}
	enc, _ := s.MarshalBinaryCompact()
	idx, err := AppendIndex(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	f := flowInColumn(t, p, 5)
	if _, err := ProjectEncoded(enc, idx, 2*p.W, p.M, f); err == nil {
		t.Error("encoding of another width accepted")
	}
	if _, err := ProjectEncoded(enc, idx[:len(idx)-1], p.W, p.M, f); err == nil {
		t.Error("short index accepted")
	}
	// Move the block holding the flow's column one word on: its walk
	// no longer ends where the next entry says.
	bad := append([]byte(nil), idx...)
	k := blockRegisters(p.M)
	entry := 4 + (5*p.M/k)*hll.IndexEntryLen
	bad[entry+4]++
	if _, err := ProjectEncoded(enc, bad, p.W, p.M, f); err == nil {
		t.Error("shifted block entry accepted")
	}
	if _, err := AppendIndex(nil, enc[:len(enc)-1]); err == nil {
		t.Error("index built over a truncated encoding")
	}
}
