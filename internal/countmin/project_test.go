package countmin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// flowAt returns a flow whose row-0 counter in a sketch of params p is j.
func flowAt(t *testing.T, p Params, j int) uint64 {
	t.Helper()
	s := Sketch{params: p}
	s.initDerived()
	for f := uint64(0); f < 1<<20; f++ {
		if s.col(f, 0) == j {
			return f
		}
	}
	t.Fatalf("no flow at counter %d of %+v", j, p)
	return 0
}

// TestFlowProjectionMatchesDecode is the referee for the indexed reader:
// for every sketch, the projection ProjectEncoded reads through the block
// index must equal the full decode's Project counter for counter, and the
// union estimate over an epoch set's projections must equal, in
// Float64bits, EstimateUnion over the fully decoded sketches. Sketches
// cover empty rows, one-byte, multi-byte and negative varints (the
// recovery's differences), rows shorter and longer than a block, and the
// first and last counter.
func TestFlowProjectionMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fills := map[string]func(*Sketch){
		"empty": func(*Sketch) {},
		"small": func(s *Sketch) {
			for i := 0; i < 300; i++ {
				s.Record(uint64(rng.Intn(50)), 0)
			}
		},
		"wide": func(s *Sketch) { // multi-byte and negative varints
			for _, row := range s.rows {
				for j := range row {
					row[j] = int32(rng.Int63n(1<<32) - 1<<31)
				}
			}
		},
		"extremes": func(s *Sketch) {
			for _, row := range s.rows {
				for j := range row {
					row[j] = []int32{math.MinInt32, math.MaxInt32, -1, 0, 1 << 14, -(1 << 13)}[rng.Intn(6)]
				}
			}
		},
	}
	for _, p := range []Params{{D: 1, W: 1}, {D: 3, W: 5}, {D: 4, W: blockCounters}, {D: 4, W: 1000}, {D: 2, W: 3*blockCounters + 7}} {
		p.Seed = rng.Uint64()
		for name, fill := range fills {
			t.Run(fmt.Sprintf("%dx%d/%s", p.D, p.W, name), func(t *testing.T) {
				var full, proj []*Sketch
				var encs, idxs [][]byte
				for e := 0; e < 4; e++ {
					s := New(p)
					fill(s)
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
				flows := []uint64{flowAt(t, p, 0), flowAt(t, p, p.W-1)}
				for i := 0; i < 8; i++ {
					flows = append(flows, rng.Uint64())
				}
				for _, f := range flows {
					proj = proj[:0]
					for e := range encs {
						got, err := ProjectEncoded(encs[e], idxs[e], p.D, p.W, f)
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
// encoding of other dimensions, an index of the wrong length, a block
// that does not end where the next entry says and a sentinel short of
// the payload are errors, never a wrong answer or a panic.
func TestProjectRejectsHostileIndex(t *testing.T) {
	p := Params{D: 4, W: 1000, Seed: 5}
	s := New(p)
	for i := 0; i < 5000; i++ {
		s.Record(uint64(i%300), 0)
	}
	enc, _ := s.MarshalBinaryCompact()
	idx, err := AppendIndex(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	f := flowAt(t, p, 3)
	if _, err := ProjectEncoded(enc, idx, p.D, 2*p.W, f); err == nil {
		t.Error("encoding of another width accepted")
	}
	if _, err := ProjectEncoded(enc, idx[:len(idx)-1], p.D, p.W, f); err == nil {
		t.Error("short index accepted")
	}
	bad := append([]byte(nil), idx...)
	binary.LittleEndian.PutUint32(bad[8:], binary.LittleEndian.Uint32(bad[8:])+1) // block 1 starts a byte late
	if _, err := ProjectEncoded(enc, bad, p.D, p.W, f); err == nil {
		t.Error("shifted block entry accepted")
	}
	bad = append(bad[:0], idx...)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], uint32(len(enc)-headerLen-1))
	if _, err := ProjectEncoded(enc, bad, p.D, p.W, f); err == nil {
		t.Error("short sentinel accepted")
	}
}
