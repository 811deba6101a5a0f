package hll

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xhash"
)

// record hashes e into an m-register estimator the way HLL does.
func record(r Regs, e uint64, seed uint64) {
	i := xhash.Index(e, seed, len(r))
	r.Observe(i, xhash.Geometric(e, seed+1, MaxRegisterValue))
}

func TestEstimateEmpty(t *testing.T) {
	r := NewRegs(DefaultM)
	if got := Estimate(r); got != 0 {
		t.Fatalf("empty estimator estimate = %v, want 0", got)
	}
	if got := Estimate(nil); got != 0 {
		t.Fatalf("nil estimator estimate = %v, want 0", got)
	}
}

func TestEstimateAccuracySmall(t *testing.T) {
	// Linear counting regime: small cardinalities should be near-exact.
	for _, n := range []int{1, 5, 20, 50} {
		r := NewRegs(DefaultM)
		for e := 0; e < n; e++ {
			record(r, uint64(e)*2654435761, 77)
		}
		got := Estimate(r)
		if math.Abs(got-float64(n)) > 3+0.25*float64(n) {
			t.Fatalf("n=%d: estimate %.1f too far from truth", n, got)
		}
	}
}

func TestEstimateAccuracyLarge(t *testing.T) {
	// Within ~5 standard errors for large cardinalities.
	for _, n := range []int{1000, 10000, 100000} {
		r := NewRegs(DefaultM)
		for e := 0; e < n; e++ {
			record(r, uint64(e), 123)
		}
		got := Estimate(r)
		rel := math.Abs(got-float64(n)) / float64(n)
		if rel > 5*StandardError(DefaultM) {
			t.Fatalf("n=%d: estimate %.0f, relative error %.3f exceeds 5 sigma", n, got, rel)
		}
	}
}

func TestEstimateDuplicateInsensitive(t *testing.T) {
	a := NewRegs(DefaultM)
	b := NewRegs(DefaultM)
	for e := 0; e < 500; e++ {
		record(a, uint64(e), 9)
		record(b, uint64(e), 9)
		record(b, uint64(e), 9) // duplicates
		record(b, uint64(e), 9)
	}
	if !a.Equal(b) {
		t.Fatal("duplicate insertions changed register state")
	}
}

func TestMergeMaxIsUnion(t *testing.T) {
	// Recording S1 into A and S2 into B, then merging, must equal
	// recording S1 union S2 into a fresh estimator. This is the property
	// the temporal/spatial joins rely on.
	a, b, u := NewRegs(DefaultM), NewRegs(DefaultM), NewRegs(DefaultM)
	for e := 0; e < 3000; e++ {
		record(a, uint64(e), 5)
		record(u, uint64(e), 5)
	}
	for e := 2000; e < 6000; e++ {
		record(b, uint64(e), 5)
		record(u, uint64(e), 5)
	}
	if err := a.MergeMax(b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(u) {
		t.Fatal("merge(A,B) != sketch(S1 ∪ S2)")
	}
}

func TestMergeMaxCommutativeIdempotent(t *testing.T) {
	err := quick.Check(func(seedA, seedB uint64) bool {
		a1, a2, b1, b2 := NewRegs(64), NewRegs(64), NewRegs(64), NewRegs(64)
		for e := 0; e < 200; e++ {
			record(a1, uint64(e)^seedA, 1)
			record(a2, uint64(e)^seedA, 1)
			record(b1, uint64(e)*3^seedB, 1)
			record(b2, uint64(e)*3^seedB, 1)
		}
		// a1 <- b1 ; b2 <- a2 : commutativity.
		if err := a1.MergeMax(b1); err != nil {
			return false
		}
		if err := b2.MergeMax(a2); err != nil {
			return false
		}
		if !a1.Equal(b2) {
			return false
		}
		// Idempotence: merging again changes nothing.
		before := a1.Clone()
		if err := a1.MergeMax(b1); err != nil {
			return false
		}
		return a1.Equal(before)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeMaxLengthMismatch(t *testing.T) {
	a, b := NewRegs(10), NewRegs(20)
	if err := a.MergeMax(b); err == nil {
		t.Fatal("expected error merging mismatched lengths")
	}
}

func TestObserveClamps(t *testing.T) {
	r := NewRegs(4)
	r.Observe(0, 200)
	if r[0] != MaxRegisterValue {
		t.Fatalf("register not clamped: %d", r[0])
	}
	r.Observe(0, 3)
	if r[0] != MaxRegisterValue {
		t.Fatal("Observe lowered a register")
	}
}

func TestResetAndClone(t *testing.T) {
	r := NewRegs(16)
	for e := 0; e < 100; e++ {
		record(r, uint64(e), 2)
	}
	c := r.Clone()
	r.Reset()
	if Estimate(r) != 0 {
		t.Fatal("reset estimator should estimate 0")
	}
	if Estimate(c) == 0 {
		t.Fatal("clone should be unaffected by reset")
	}
}

func TestMemoryBits(t *testing.T) {
	r := NewRegs(DefaultM)
	if got := r.MemoryBits(); got != DefaultM*RegisterBits {
		t.Fatalf("MemoryBits = %d, want %d", got, DefaultM*RegisterBits)
	}
}

func TestAlphaMonotone(t *testing.T) {
	if alpha(16) >= alpha(128) && alpha(16) != 0.673 {
		t.Fatal("unexpected alpha values")
	}
	for _, m := range []int{16, 32, 64, 128, 1024} {
		a := alpha(m)
		if a < 0.6 || a > 0.8 {
			t.Fatalf("alpha(%d) = %v out of plausible range", m, a)
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	err := quick.Check(func(vals []uint8) bool {
		r := make(Regs, len(vals))
		for i, v := range vals {
			r[i] = v & MaxRegisterValue
		}
		words := make([]uint64, PackedWords(len(r)))
		PackInto(words, r)
		back := make(Regs, len(r))
		return UnpackInto(back, words) == nil && back.Equal(r)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackedSetGetBoundaries(t *testing.T) {
	// Registers straddling word boundaries (every 64/gcd(5,64) pattern).
	r := make(Regs, 200)
	for i := range r {
		r[i] = uint8(i % 32)
	}
	words := make([]uint64, PackedWords(len(r)))
	PackInto(words, r)
	got := make(Regs, len(r))
	if err := UnpackInto(got, words); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != uint8(i%32) {
			t.Fatalf("register %d: got %d want %d", i, got[i], i%32)
		}
	}
}

func TestPackedMemorySavings(t *testing.T) {
	// 1280*5 = 6400 bits = exactly 100 words.
	if got := PackedWords(1280) * 64; got != 1280*RegisterBits {
		t.Fatalf("packed memory = %d bits, want %d", got, 1280*RegisterBits)
	}
}
