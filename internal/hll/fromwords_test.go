package hll

import "testing"

// These tests pin the canonical-form checks UnpackInto makes when it reads
// packed words back from the wire.

func TestFromWordsRoundTrip(t *testing.T) {
	r := NewRegs(100)
	for i := range r {
		r[i] = uint8(i % 32)
	}
	words := make([]uint64, PackedWords(len(r)))
	PackInto(words, r)
	back := NewRegs(100)
	if err := UnpackInto(back, words); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Fatal("UnpackInto(PackInto) changed register state")
	}
}

func TestFromWordsLengthMismatch(t *testing.T) {
	if err := UnpackInto(NewRegs(100), make([]uint64, 3)); err == nil {
		t.Fatal("expected word-count error")
	}
}

func TestFromWordsRejectsPaddingBits(t *testing.T) {
	// 100 registers * 5 bits = 500 bits = 7.8125 words -> 8 words with 12
	// padding bits; setting any of them must be rejected (canonical
	// encodings only).
	words := make([]uint64, PackedWords(100))
	words[len(words)-1] |= 1 << 63
	if err := UnpackInto(NewRegs(100), words); err == nil {
		t.Fatal("expected non-canonical padding error")
	}
}

func TestFromWordsExactFit(t *testing.T) {
	// 64 registers * 5 = 320 bits = exactly 5 words: no padding to check.
	r := NewRegs(64)
	for i := range r {
		r[i] = MaxRegisterValue
	}
	words := make([]uint64, PackedWords(len(r)))
	if len(words) != 5 {
		t.Fatalf("64 registers packed into %d words, want 5", len(words))
	}
	PackInto(words, r)
	back := NewRegs(64)
	if err := UnpackInto(back, words); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != MaxRegisterValue {
			t.Fatalf("register %d = %d", i, back[i])
		}
	}
}
