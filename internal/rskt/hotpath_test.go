package rskt

import (
	"bytes"
	"testing"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// recordReference is the original record path, spelled directly over the
// xhash primitives. Slot/RecordSlot must stay bit-identical to it.
func recordReference(s *Sketch, f, e uint64) {
	p := s.Params()
	j := xhash.Index(f^p.Seed, seedColumn, p.W)
	i := xhash.Index(e^p.Seed, seedRegister, p.M)
	u := xhash.PairBit(f^p.Seed, i, seedPairBit)
	v := xhash.Geometric(xhash.HashPair(f, e, p.Seed), seedGeo, hll.MaxRegisterValue)
	s.rows[u].Observe(j*p.M+i, v)
}

// TestSlotMatchesReference pins the precomputed Slot path to the direct
// xhash expressions, over non-power-of-two and power-of-two widths.
func TestSlotMatchesReference(t *testing.T) {
	for _, p := range []Params{
		{W: 7, M: 8, Seed: 0xdecaf},
		{W: 16, M: 128, Seed: 1},
		{W: 1638, M: 128, Seed: 99},
		{W: 1, M: 1, Seed: 0},
	} {
		fast := New(p)
		ref := New(p)
		for k := uint64(0); k < 3000; k++ {
			f := xhash.Mix64(k) % 50
			e := xhash.Mix64(k + 1)
			fast.Record(f, e)
			recordReference(ref, f, e)
		}
		if !fast.Equal(ref) {
			t.Fatalf("params %+v: Slot path diverged from reference", p)
		}
		for f := uint64(0); f < 50; f++ {
			if a, b := fast.Estimate(f), ref.Estimate(f); a != b {
				t.Fatalf("params %+v flow %d: estimate %v vs %v", p, f, a, b)
			}
		}
	}
}

// TestRecordSlotSharedAcrossSketches verifies the hash-once-apply-thrice
// contract: one Slot recorded into several same-parameter sketches equals
// recording into each directly.
func TestRecordSlotSharedAcrossSketches(t *testing.T) {
	p := Params{W: 33, M: 64, Seed: 7}
	a, b, c := New(p), New(p), New(p)
	ra, rb, rc := New(p), New(p), New(p)
	for k := uint64(0); k < 2000; k++ {
		f, e := k%17, xhash.Mix64(k)
		sl := a.Slot(f, e)
		a.RecordSlot(sl)
		b.RecordSlot(sl)
		c.RecordSlot(sl)
		ra.Record(f, e)
		rb.Record(f, e)
		rc.Record(f, e)
	}
	if !a.Equal(ra) || !b.Equal(rb) || !c.Equal(rc) {
		t.Fatal("shared slot recording diverged from direct Record")
	}
}

// TestCompactEncodingRoundTrip covers the encoding across densities,
// including the decode-into-existing-sketch reuse path.
func TestCompactEncodingRoundTrip(t *testing.T) {
	p := Params{W: 41, M: 32, Seed: 5}
	scratch := New(p) // reused across decodes, exercising row reuse
	for _, packets := range []int{0, 1, 40, 2000} {
		s := New(p)
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
		if !scratch.Equal(s) {
			t.Fatalf("packets=%d: round-trip mismatch", packets)
		}
		// The decoded sketch must keep recording identically (derived
		// state rebuilt).
		scratch.Record(77, 123456)
		if !scratch.Equal(mut) {
			t.Fatalf("packets=%d: decoded sketch records differently", packets)
		}
		// A sparse epoch must take well under half its 5-bit packed size.
		if packed := s.MemoryBits() / 8; packets == 40 && len(compact) >= packed/2 {
			t.Fatalf("compact %d bytes vs %d packed: expected >2x reduction at this density", len(compact), packed)
		}
	}
}

// TestUnmarshalRejectsCrossCodecTrailing pins clean errors for truncation
// in the compact framing.
func TestUnmarshalRejectsCompactTruncation(t *testing.T) {
	s := New(Params{W: 8, M: 16, Seed: 2})
	s.Record(1, 2)
	enc, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var sk Sketch
	for cut := 1; cut < len(enc); cut++ {
		if err := sk.UnmarshalBinary(enc[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d/%d bytes", cut, len(enc))
		}
	}
	if err := sk.UnmarshalBinary(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("accepted trailing byte")
	}
}

// TestRecordAllMatchesRecord pins the two-pass batched ingest loop to the
// one-by-one Record path: identical registers for the same packet
// multiset, across batch sizes that cover the scratch-growth and reuse
// paths.
func TestRecordAllMatchesRecord(t *testing.T) {
	for _, p := range []Params{
		{W: 7, M: 8, Seed: 0xdecaf},
		{W: 512, M: 64, Seed: 5},
	} {
		batched := New(p)
		serial := New(p)
		for _, n := range []int{1, 7, 32, 131, 32} {
			fs := make([]uint64, n)
			es := make([]uint64, n)
			for i := range fs {
				fs[i] = xhash.Mix64(uint64(n*1000+i)) % 40
				es[i] = xhash.Mix64(uint64(n*2000 + i))
			}
			batched.RecordAll(fs, es)
			for i := range fs {
				serial.Record(fs[i], es[i])
			}
		}
		if !batched.Equal(serial) {
			t.Fatalf("params %+v: RecordAll diverged from Record", p)
		}
	}
}
