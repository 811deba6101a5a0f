package vhll

import (
	"testing"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// recordReference is the original record path, spelled directly over the
// xhash primitives. Slot/RecordSlot must stay bit-identical to it.
func recordReference(s *Sketch, f, e uint64) {
	p := s.Params()
	i := xhash.Index(e^p.Seed, seedVirtual, p.VirtualRegisters)
	reg := xhash.HashPair(f, uint64(i), p.Seed^seedRegister) % uint64(p.PhysicalRegisters)
	s.regs.Observe(int(reg), xhash.Geometric(xhash.HashPair(f, e, p.Seed), seedGeo, hll.MaxRegisterValue))
}

// TestSlotMatchesReference pins the precomputed Slot path to the direct
// xhash expressions, over non-power-of-two and power-of-two sizes.
func TestSlotMatchesReference(t *testing.T) {
	for _, p := range []Params{
		{PhysicalRegisters: 100, VirtualRegisters: 7, Seed: 0xdecaf},
		{PhysicalRegisters: 4096, VirtualRegisters: 128, Seed: 1},
		{PhysicalRegisters: 13107, VirtualRegisters: 128, Seed: 42},
	} {
		fast, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := New(p)
		for k := uint64(0); k < 3000; k++ {
			f := xhash.Mix64(k) % 50
			e := xhash.Mix64(k + 1)
			fast.Record(f, e)
			recordReference(ref, f, e)
		}
		if !fast.regs.Equal(ref.regs) {
			t.Fatalf("params %+v: Slot path diverged from reference", p)
		}
		for f := uint64(0); f < 50; f++ {
			if a, b := fast.Estimate(f), ref.Estimate(f); a != b {
				t.Fatalf("params %+v flow %d: estimate %v vs %v", p, f, a, b)
			}
		}
	}
}

// TestCompactEncodingRoundTrip covers the encoding across densities,
// including the decode-into-existing-sketch reuse path.
func TestCompactEncodingRoundTrip(t *testing.T) {
	p := Params{PhysicalRegisters: 2048, VirtualRegisters: 32, Seed: 5}
	scratch, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, packets := range []int{0, 1, 60, 5000} {
		s, _ := New(p)
		for k := 0; k < packets; k++ {
			s.Record(uint64(k%9), uint64(k))
		}
		compact, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		mut := s.Clone()
		mut.Record(77, 123456)
		if err := scratch.UnmarshalBinary(compact); err != nil {
			t.Fatalf("packets=%d: %v", packets, err)
		}
		if !scratch.regs.Equal(s.regs) || scratch.params != s.params {
			t.Fatalf("packets=%d: round-trip mismatch", packets)
		}
		scratch.Record(77, 123456)
		if !scratch.regs.Equal(mut.regs) {
			t.Fatalf("packets=%d: decoded sketch records differently", packets)
		}
		if packed := s.MemoryBits() / 8; packets == 60 && len(compact) >= packed/2 {
			t.Fatalf("compact %d bytes vs %d packed: expected >2x reduction at this density", len(compact), packed)
		}
	}
}
