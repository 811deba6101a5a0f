package hll

import (
	"math"
	"math/rand"
	"testing"
)

// refEstimateUnion is the float estimator the integer Sum replaced: the
// terms 2^−v of the element-wise max of regs and others, added as
// float64s in register order, the zero registers counted beside them, and
// the same bias-corrected finish.
func refEstimateUnion(regs []uint8, others [][]uint8) float64 {
	m := len(regs)
	if m == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for i, v := range regs {
		for _, o := range others {
			if o[i] > v {
				v = o[i]
			}
		}
		sum += math.Ldexp(1, -int(v&MaxRegisterValue))
		if v == 0 {
			zeros++
		}
	}
	fm := float64(m)
	e := alpha(m) * fm * fm / sum
	if e <= 2.5*fm && zeros > 0 {
		return fm * math.Log(fm/float64(zeros))
	}
	return e
}

// estimateFills returns register arrays of length n the referee runs:
// all-zero, all-31, one nonzero register, and HLL-recorded arrays from
// near-empty (linear counting) to far past n elements (the raw estimate).
func estimateFills(rng *rand.Rand, n int) []Regs {
	zero, full, one := NewRegs(n), NewRegs(n), NewRegs(n)
	for i := range full {
		full[i] = MaxRegisterValue
	}
	one[rng.Intn(n)] = uint8(1 + rng.Intn(MaxRegisterValue))
	fills := []Regs{zero, full, one, randRegs(rng, n)}
	for _, k := range []int{n / 8, n, 8 * n} {
		r := NewRegs(n)
		seed := rng.Uint64()
		for e := 0; e < k; e++ {
			record(r, uint64(e), seed)
		}
		fills = append(fills, r)
	}
	return fills
}

// TestEstimateMatchesFloatReference holds Estimate and EstimateUnion to
// the float loop they replaced, bit for bit: every length 1..1024 (word
// multiples, tails and lengths past EstimateUnion's chunk) over
// all-zero, all-31, single-nonzero and recorded arrays, and the union
// with 0..8 others.
func TestEstimateMatchesFloatReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	row := func(o Regs) []uint8 { return o }
	for n := 1; n <= 1024; n++ {
		for fi, r := range estimateFills(rng, n) {
			got, want := Estimate(r), refEstimateUnion(r, nil)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d fill %d: Estimate = %v, float reference %v", n, fi, got, want)
			}
		}
		if n%7 != 1 && n != 1024 { // the union over a spread of lengths
			continue
		}
		fills := estimateFills(rng, n)
		for k := 0; k <= 8; k++ {
			regs := fills[rng.Intn(len(fills))]
			others := make([]Regs, k)
			plain := make([][]uint8, k)
			for j := range others {
				others[j] = fills[rng.Intn(len(fills))]
				plain[j] = others[j]
			}
			got, want := EstimateUnion(regs, others, row), refEstimateUnion(regs, plain)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d, %d others: EstimateUnion = %v, float reference %v", n, k, got, want)
			}
		}
	}
	if got := EstimateUnion(nil, []Regs{nil}, row); got != 0 {
		t.Fatalf("empty union estimate = %v, want 0", got)
	}
}
