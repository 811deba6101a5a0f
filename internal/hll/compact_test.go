package hll

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestRunWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]uint64{
		nil,
		{0},
		{1},
		{0, 0, 0},
		{7, 0, 0, 9},
		{0, 1, 0, 2, 0, 3},
	}
	for i := 0; i < 50; i++ {
		n := rng.Intn(40)
		w := make([]uint64, n)
		for j := range w {
			if rng.Intn(3) > 0 {
				w[j] = rng.Uint64()
			}
		}
		cases = append(cases, w)
	}
	for _, w := range cases {
		enc := AppendRunWords(nil, w)
		got := make([]uint64, len(w))
		consumed, err := DecodeRunWords(got, enc)
		if err != nil {
			t.Fatalf("words %v: %v", w, err)
		}
		if consumed != len(enc) {
			t.Fatalf("words %v: consumed %d of %d bytes", w, consumed, len(enc))
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("words %v: round-trip mismatch at %d: %v", w, j, got)
			}
		}
	}
}

func TestDecodeRunWordsRejectsMalformed(t *testing.T) {
	dst := make([]uint64, 4)
	bad := map[string][]byte{
		"empty":           {},
		"zero-length run": {0},
		"overlong zeros":  {5 << 1},
		"truncated lits":  {2<<1 | 1, 1, 2, 3},
		"trailing needed": {1 << 1}, // covers 1 of 4 words then runs out
		// 0x88 0x00 is a two-byte varint for token 8 (canonical: 0x08);
		// accepting it would give the 4-zero-word slice two encodings.
		"non-minimal token": {0x88, 0x00},
	}
	for name, data := range bad {
		if _, err := DecodeRunWords(dst, data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 130; n++ {
		for _, density := range []float64{0, 0.01, 0.1, 0.5, 1} {
			r := make(Regs, n)
			for i := range r {
				if rng.Float64() < density {
					r[i] = uint8(1 + rng.Intn(MaxRegisterValue))
				}
			}
			enc := AppendCompact(nil, r)
			got := make(Regs, n)
			// Pre-dirty the destination: decode must fully overwrite.
			for i := range got {
				got[i] = MaxRegisterValue
			}
			consumed, err := DecodeCompact(got, enc)
			if err != nil {
				t.Fatalf("n=%d density=%v: %v", n, density, err)
			}
			if consumed != len(enc) {
				t.Fatalf("n=%d: consumed %d of %d", n, consumed, len(enc))
			}
			if !got.Equal(r) {
				t.Fatalf("n=%d density=%v: round-trip mismatch", n, density)
			}
			// Decoding with trailing bytes present must consume only the
			// encoding (callers concatenate arrays).
			consumed2, err := DecodeCompact(got, append(bytes.Clone(enc), 0xAB, 0xCD))
			if err != nil || consumed2 != len(enc) {
				t.Fatalf("n=%d: decode with trailing bytes: consumed=%d err=%v", n, consumed2, err)
			}
		}
	}
}

func TestCompactSparseWinsWhenSparse(t *testing.T) {
	// One nonzero register out of 1024: the compact form must be far
	// smaller than the 5-bit dense packing (640 bytes).
	r := make(Regs, 1024)
	r[700] = 17
	enc := AppendCompact(nil, r)
	if len(enc) >= 64 {
		t.Fatalf("sparse encoding of 1/1024 registers took %d bytes", len(enc))
	}
	// Fully dense arrays must still round-trip near the packed size.
	for i := range r {
		r[i] = uint8(1 + i%MaxRegisterValue)
	}
	enc = AppendCompact(nil, r)
	if len(enc) > PackedWords(1024)*8+16 {
		t.Fatalf("dense encoding took %d bytes", len(enc))
	}
}

func TestDecodeCompactRejectsMalformed(t *testing.T) {
	dst := make(Regs, 64)
	bad := map[string][]byte{
		"empty":        {},
		"unknown mode": {2},
		"dense trunc":  {0},
		"sparse trunc": {1},
	}
	for name, data := range bad {
		if _, err := DecodeCompact(dst, data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	// Sparse encoding whose density belongs to the dense mode.
	r := make(Regs, 64)
	for i := range r {
		r[i] = 3
	}
	// Hand-build mode-1: full bitmap + 64 packed values.
	bitmap := []uint64{^uint64(0)}
	vals := make([]uint64, PackedWords(64))
	PackInto(vals, r)
	enc := append([]byte{1}, AppendRunWords(nil, bitmap)...)
	for _, w := range vals {
		enc = append(enc, byte(w), byte(w>>8), byte(w>>16), byte(w>>24), byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	if _, err := DecodeCompact(dst, enc); err == nil {
		t.Error("expected rejection of sparse mode on a dense array")
	}

	// Sparse encoding carrying a zero value.
	one := make(Regs, 64)
	one[0] = 5
	good := AppendCompact(nil, one)
	if good[0] != 1 {
		t.Fatalf("expected sparse mode, got %d", good[0])
	}
	zeroVal := bytes.Clone(good)
	// The single 5-bit value lives at the start of the first value word;
	// zero it out.
	zeroVal[len(zeroVal)-8] &^= MaxRegisterValue
	if _, err := DecodeCompact(dst, zeroVal); err == nil {
		t.Error("expected rejection of zero sparse value")
	}
}

func TestPackIntoUnpackInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 130; n++ {
		r := randRegs(rng, n)
		words := make([]uint64, PackedWords(n))
		PackInto(words, r)
		// Must agree with the bit-by-bit layout: register i occupies bits
		// [5i, 5i+5), padding bits stay zero.
		for b := 0; b < 64*len(words); b++ {
			want := uint64(0)
			if i := b / RegisterBits; i < n {
				want = uint64(r[i]>>uint(b%RegisterBits)) & 1
			}
			if got := words[b/64] >> uint(b%64) & 1; got != want {
				t.Fatalf("n=%d: PackInto bit %d = %d, want %d", n, b, got, want)
			}
		}
		got := make(Regs, n)
		if err := UnpackInto(got, words); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(r) {
			t.Fatalf("n=%d: pack/unpack mismatch", n)
		}
	}
	if err := UnpackInto(make(Regs, 10), make([]uint64, 3)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if err := UnpackInto(make(Regs, 3), []uint64{1 << 63}); err == nil {
		t.Fatal("expected padding-bits error")
	}
}

func FuzzCompact(f *testing.F) {
	f.Add(uint16(128), AppendCompact(nil, make(Regs, 128)))
	sparse := make(Regs, 128)
	sparse[3], sparse[90] = 7, 31
	f.Add(uint16(128), AppendCompact(nil, sparse))
	dense := make(Regs, 40)
	for i := range dense {
		dense[i] = uint8(1 + i%31)
	}
	f.Add(uint16(40), AppendCompact(nil, dense))
	f.Add(uint16(0), []byte{0})
	f.Add(uint16(64), []byte{1, 2<<1 | 1, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		if n > 4096 {
			return
		}
		dst := make(Regs, n)
		consumed, err := DecodeCompact(dst, data)
		if err != nil {
			return
		}
		if consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		// Whatever decoded must re-encode to the same bytes (canonical) and
		// hold only valid register values.
		for i, v := range dst {
			if v > MaxRegisterValue {
				t.Fatalf("register %d out of range: %d", i, v)
			}
		}
		re := AppendCompact(nil, dst)
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("non-canonical encoding accepted:\n in  %x\n out %x", data[:consumed], re)
		}
	})
}
