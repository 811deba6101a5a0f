package vhll

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// refEstimateUnion is the per-register loop EstimateUnion replaced: the
// virtual estimator gathered into a buffer with a branchy max over the
// others, the whole array's union materialized, and hll.Estimate (held to
// the float loop by TestEstimateMatchesFloatReference) reading both.
func refEstimateUnion(s *Sketch, f uint64, others []*Sketch) float64 {
	p := &s.params
	virt := make([]uint8, p.VirtualRegisters)
	hf := xhash.Mix64(f ^ s.preRegSeed)
	for i := range virt {
		reg := s.pDiv.Mod(xhash.Mix64(hf ^ uint64(i)))
		v := s.regs[reg]
		for _, o := range others {
			if w := o.regs[reg]; w > v {
				v = w
			}
		}
		virt[i] = v
	}
	whole := s.regs.Clone()
	for _, o := range others {
		for i, v := range o.regs {
			if v > whole[i] {
				whole[i] = v
			}
		}
	}
	sv := float64(p.VirtualRegisters)
	m := float64(p.PhysicalRegisters)
	est := sv / (1 - sv/m) * (hll.Estimate(virt)/sv - hll.Estimate(whole)/m)
	if math.IsNaN(est) || est < 0 {
		return 0
	}
	return est
}

// TestEstimateUnionMatchesReference holds EstimateUnion to the loop it
// replaced, bit for bit: virtual estimators of 1 to 257 registers,
// physical arrays with and without a word tail and past the whole-array
// union's chunk, 0..8 others, recorded and saturated arrays.
func TestEstimateUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range []int{1, 3, 8, 64, 128, 256, 257} {
		for _, phys := range []int{257, 1000, 4099} {
			p := Params{PhysicalRegisters: phys, VirtualRegisters: s, Seed: 5}
			lanes := make([]*Sketch, 9)
			for j := range lanes {
				var err error
				if lanes[j], err = New(p); err != nil {
					t.Fatal(err)
				}
				for e := 0; e < ((j+1)%3)*phys; e++ {
					lanes[j].Record(uint64(rng.Intn(20)), rng.Uint64())
				}
			}
			full := lanes[0].Clone()
			for i := range full.regs {
				full.regs[i] = hll.MaxRegisterValue
			}
			for k := 0; k <= 8; k++ {
				for f := uint64(0); f < 20; f++ {
					for _, base := range []*Sketch{lanes[0], full} {
						got, want := base.EstimateUnion(f, lanes[1:1+k]), refEstimateUnion(base, f, lanes[1:1+k])
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%+v, flow %d, %d others: EstimateUnion = %v, reference %v", p, f, k, got, want)
						}
					}
				}
			}
		}
	}
}
