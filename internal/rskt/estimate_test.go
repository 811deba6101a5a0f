package rskt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// refEstimateUnion is the per-register loop EstimateUnion replaced: for
// each register i, the pair bit picks L_f's row, a branchy max over the
// others fills both virtual estimators, and hll.Estimate (itself held to
// the float loop by TestEstimateMatchesFloatReference) reads each.
func refEstimateUnion(s *Sketch, f uint64, others []*Sketch) float64 {
	p := &s.params
	base := s.column(f) * p.M
	hf := xhash.Mix64((f ^ p.Seed) ^ prePairBit)
	lf, lbar := make([]uint8, p.M), make([]uint8, p.M)
	for i := 0; i < p.M; i++ {
		u := int(xhash.Mix64(hf^uint64(i)) & 1)
		a, b := s.rows[u][base+i], s.rows[1-u][base+i]
		for _, o := range others {
			if v := o.rows[u][base+i]; v > a {
				a = v
			}
			if v := o.rows[1-u][base+i]; v > b {
				b = v
			}
		}
		lf[i], lbar[i] = a, b
	}
	return hll.Estimate(lf) - hll.Estimate(lbar)
}

// checkEstimateUnion fails t unless EstimateUnion(f, others) on s is
// bit-identical to the reference loop.
func checkEstimateUnion(t testing.TB, s *Sketch, f uint64, others []*Sketch) {
	t.Helper()
	got, want := s.EstimateUnion(f, others), refEstimateUnion(s, f, others)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v, flow %d, %d others: EstimateUnion = %v, reference %v", s.params, f, len(others), got, want)
	}
}

// TestEstimateUnionMatchesReference holds EstimateUnion to the
// per-register loop it replaced, bit for bit: M from 1 to 257 (257 takes
// the heap scratch), 0..8 others, recorded, sparse and saturated rows,
// and the flows' width-1 projections, which a history window joins.
func TestEstimateUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{1, 3, 8, 64, 128, 256, 257} {
		p := Params{W: 5, M: m, Seed: 3}
		lanes := make([]*Sketch, 9)
		for j := range lanes {
			lanes[j] = New(p)
			for e := 0; e < ((j+1)%3)*200*m; e++ {
				lanes[j].Record(uint64(rng.Intn(40)), rng.Uint64())
			}
		}
		full := New(p)
		for u := range full.rows {
			for i := range full.rows[u] {
				full.rows[u][i] = hll.MaxRegisterValue
			}
		}
		for k := 0; k <= 8; k++ {
			for f := uint64(0); f < 40; f++ {
				others := lanes[1 : 1+k]
				checkEstimateUnion(t, lanes[0], f, others)
				checkEstimateUnion(t, full, f, others)
				projs := make([]*Sketch, k)
				for j, o := range others {
					projs[j] = o.Project(f)
				}
				checkEstimateUnion(t, lanes[0].Project(f), f, projs)
				checkEstimateUnion(t, full.Project(f), f, projs)
			}
		}
	}
}
