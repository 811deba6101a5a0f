package countmin

import (
	"math"
	"testing"
)

// The counters' arithmetic edges. A counter holds 32 bits, the width the
// paper charges (CounterBits), and every counter operation is exact modulo
// 2^32: each value in [-2^31, 2^31) reads as itself, which bounds a
// window's count to 2^31 - 1 packets per counter.

// TestSubSketchExactAcrossWrap: the center's recovery subtracts one
// cumulative upload from the next (Section V-B). When the cumulative
// counter passes 2^31 between the two, the difference still recovers the
// epoch exactly.
func TestSubSketchExactAcrossWrap(t *testing.T) {
	p := Params{D: 4, W: 16, Seed: 3}
	for _, tc := range []struct{ before, delta int64 }{
		{math.MaxInt32 - 4, 10},           // crosses 2^31
		{math.MaxInt32, 1},                // lands on 2^31
		{1<<32 - 3, 7},                    // crosses 2^32
		{3 << 30, math.MaxInt32},          // the largest delta, from past 2^31
		{math.MaxInt32 - 100, 1<<31 - 50}, // lands just short of 2^32
	} {
		prev := New(p)
		prev.Add(1, tc.before)
		cur := prev.Clone()
		cur.Add(1, tc.delta)
		if err := cur.SubSketch(prev); err != nil {
			t.Fatal(err)
		}
		want := New(p)
		want.Add(1, tc.delta)
		if !cur.Equal(want) || cur.Estimate(1) != tc.delta {
			t.Fatalf("%d + %d: recovered estimate %d, want %d", tc.before, tc.delta, cur.Estimate(1), tc.delta)
		}
	}
}

// TestCompressToFoldsNegativeToZero: CompressTo's column fold is a max
// that starts from zero, so a negative counter — which a recovery over
// hostile or inconsistent uploads can leave — folds to at least zero at
// any target width, the sketch's own included, down to -2^31.
func TestCompressToFoldsNegativeToZero(t *testing.T) {
	p := Params{D: 3, W: 32, Seed: 6}
	s := New(p)
	deltas := []int64{math.MinInt32, -1, -7, math.MaxInt32, 0, 5, -(1 << 20)}
	for f := uint64(0); f < 40; f++ {
		s.Add(f, deltas[f%uint64(len(deltas))])
	}
	neg := New(p)
	neg.Add(2, math.MinInt32)
	neg.Add(9, -3)
	for _, src := range []*Sketch{s, neg} {
		for _, w := range []int{32, 16, 4, 1} {
			c, err := src.CompressTo(w)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.D; i++ {
				for k := 0; k < w; k++ {
					want := int64(0)
					for j := k; j < p.W; j += w {
						want = max(want, int64(src.Row(i)[j]))
					}
					if got := int64(c.Row(i)[k]); got != want {
						t.Fatalf("w=%d row %d col %d: folded %d, want %d", w, i, k, got, want)
					}
				}
			}
		}
	}
}

// TestEstimatePastCounterBound pins the read past the bound: a counter
// holds its count modulo 2^32 as a signed value and Estimate clamps a
// negative one at zero, so 2^31 - 1 packets read exactly, 2^31 + x read
// zero and 2^32 + x read x. EstimateSummed's sum wraps the same way, so
// it stays bit-identical to adding the sketches first.
func TestEstimatePastCounterBound(t *testing.T) {
	p := Params{D: 4, W: 16, Seed: 3}
	for _, tc := range []struct{ count, want int64 }{
		{math.MaxInt32, math.MaxInt32},
		{1 << 31, 0},
		{1<<31 + 7, 0},
		{1<<32 - 1, 0},
		{1 << 32, 0},
		{1<<32 + 7, 7},
	} {
		s := New(p)
		s.Add(1, tc.count)
		if got := s.Estimate(1); got != tc.want {
			t.Errorf("%d packets: Estimate reads %d, want %d", tc.count, got, tc.want)
		}
		base, lane := New(p), New(p)
		base.Add(1, tc.count-5)
		lane.Add(1, 5)
		if got := base.EstimateSummed(1, []*Sketch{lane}); got != tc.want {
			t.Errorf("%d packets over a sketch and a lane: EstimateSummed reads %d, want %d", tc.count, got, tc.want)
		}
	}
}

// TestProjectRefusesCounterPastRange: an encoding whose counter varints
// lie just past the 32-bit range is refused by the full decode and by the
// projection read through its true block index.
func TestProjectRefusesCounterPastRange(t *testing.T) {
	p := Params{D: 2, W: 4, Seed: 5}
	for _, v := range outOfRange {
		vals := make([]int64, p.D*p.W)
		for i := range vals {
			vals[i] = v
		}
		enc := encodeCounters(p, vals)
		idx, err := AppendIndex(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ProjectEncoded(enc, idx, p.D, p.W, 1); err == nil {
			t.Errorf("counter %d: projection accepted", v)
		}
		if err := New(p).UnmarshalBinary(enc); err == nil {
			t.Errorf("counter %d: decode accepted", v)
		}
	}
}
