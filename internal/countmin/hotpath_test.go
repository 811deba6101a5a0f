package countmin

import (
	"testing"

	"repro/internal/xhash"
)

// addReference is the original record path, spelled directly over the
// xhash primitives. Add/Slots must stay bit-identical to it.
func addReference(s *Sketch, f uint64, delta int64) {
	p := s.Params()
	for i := 0; i < p.D; i++ {
		j := xhash.Index(f^p.Seed, uint64(i)+1, p.W)
		s.rows[i][j] += int32(delta)
	}
}

// TestAddMatchesReference pins the precomputed row path to the direct
// xhash expressions, over non-power-of-two and power-of-two widths.
func TestAddMatchesReference(t *testing.T) {
	for _, p := range []Params{
		{D: 4, W: 7, Seed: 0xdecaf},
		{D: 4, W: 16384, Seed: 1},
		{D: 2, W: 1638, Seed: 42},
		{D: 1, W: 1, Seed: 0},
	} {
		fast := New(p)
		ref := New(p)
		for k := uint64(0); k < 3000; k++ {
			f := xhash.Mix64(k) % 50
			fast.Add(f, int64(k%5)+1)
			addReference(ref, f, int64(k%5)+1)
		}
		if !fast.Equal(ref) {
			t.Fatalf("params %+v: Add diverged from reference", p)
		}
		for f := uint64(0); f < 50; f++ {
			if a, b := fast.Estimate(f), ref.Estimate(f); a != b {
				t.Fatalf("params %+v flow %d: estimate %d vs %d", p, f, a, b)
			}
		}
	}
}

// TestSlotsSharedAcrossSketches verifies the hash-once-apply-twice
// contract of the size design's two-sketch record path.
func TestSlotsSharedAcrossSketches(t *testing.T) {
	p := Params{D: 4, W: 321, Seed: 7}
	a, b := New(p), New(p)
	ra, rb := New(p), New(p)
	idx := make([]int, p.D)
	for k := uint64(0); k < 2000; k++ {
		f := k % 17
		a.Slots(f, idx)
		a.AddSlots(idx, 1)
		b.AddSlots(idx, 1)
		ra.Add(f, 1)
		rb.Add(f, 1)
	}
	if !a.Equal(ra) || !b.Equal(rb) {
		t.Fatal("shared slot recording diverged from direct Add")
	}
}

// TestCompactEncodingRoundTrip covers negative counters (the center's
// subtraction algebra) and the decode-into-existing-sketch reuse path.
func TestCompactEncodingRoundTrip(t *testing.T) {
	p := Params{D: 3, W: 257, Seed: 5}
	scratch := New(p)
	for _, fill := range []int{0, 1, 30, 1000} {
		s := New(p)
		for k := 0; k < fill; k++ {
			s.Add(uint64(k%11), int64(k)-3)
		}
		compact, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		mut := s.Clone()
		mut.Add(77, 9)
		if err := scratch.UnmarshalBinary(compact); err != nil {
			t.Fatalf("fill=%d: %v", fill, err)
		}
		if !scratch.Equal(s) {
			t.Fatalf("fill=%d: round-trip mismatch", fill)
		}
		scratch.Add(77, 9)
		if !scratch.Equal(mut) {
			t.Fatalf("fill=%d: decoded sketch records differently", fill)
		}
		// Mostly-zero counters take one varint byte each.
		if cells := p.D * p.W; fill == 30 && len(compact) >= 17+cells*11/10 {
			t.Fatalf("compact %d bytes for %d counters: expected about one byte per counter at this fill", len(compact), cells)
		}
	}
}

// TestRecordAllMatchesRecord pins the two-pass batched ingest loop to the
// one-by-one Record path: identical counters for the same flow multiset,
// across batch sizes that cover the scratch-growth and reuse paths.
func TestRecordAllMatchesRecord(t *testing.T) {
	for _, p := range []Params{
		{D: 4, W: 7, Seed: 0xdecaf},
		{D: 3, W: 4096, Seed: 5},
	} {
		batched := New(p)
		serial := New(p)
		for _, n := range []int{1, 7, 32, 131, 32} {
			fs := make([]uint64, n)
			for i := range fs {
				fs[i] = xhash.Mix64(uint64(n*1000+i)) % 40
			}
			batched.RecordAll(fs, nil)
			for _, f := range fs {
				serial.Record(f, 0)
			}
		}
		if !batched.Equal(serial) {
			t.Fatalf("params %+v: RecordAll diverged from Record", p)
		}
	}
}
