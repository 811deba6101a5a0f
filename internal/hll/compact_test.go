package hll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
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
		// The input bytes, read as registers, must encode exactly as the
		// reference encodes them.
		regs := make(Regs, len(data))
		for i, b := range data {
			regs[i] = b & MaxRegisterValue
		}
		if got, want := AppendCompact(nil, regs), refAppendCompact(nil, regs); !bytes.Equal(got, want) {
			t.Fatalf("encoding of %x differs from the reference:\n got  %x\n want %x", regs, got, want)
		}

		dst := make(Regs, n)
		consumed, err := DecodeCompact(dst, data)
		ref := make(Regs, n)
		refConsumed, refErr := refDecodeCompact(ref, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode of %x: err %v, reference err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if consumed != refConsumed || !dst.Equal(ref) {
			t.Fatalf("decode of %x differs from the reference", data)
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

// regsWithNonzero returns n registers of which exactly k (clamped to n)
// are nonzero, at random positions, with random values in [1, 31].
func regsWithNonzero(rng *rand.Rand, n, k int) Regs {
	r := make(Regs, n)
	for _, i := range rng.Perm(n)[:min(max(k, 0), n)] {
		r[i] = uint8(1 + rng.Intn(MaxRegisterValue))
	}
	return r
}

// TestCompactMatchesReference pins the word-at-a-time kernels to the
// register-at-a-time reference below, byte for byte: equal encodings,
// equal decoded registers, and the same verdict (and, when accepted, the
// same registers) on every single-bit corruption of every encoding and on
// every encoding read at a length one off its own. The inputs cover
// lengths on both sides of a 64-register word, densities across [0, 1],
// and the two nonzero counts on each side of the sparse/dense threshold
// (sparse iff nonzero < 4n/5).
func TestCompactMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var ns []int
	for n := 0; n <= 140; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 191, 192, 193, 320, 447, 448, 449, 577, 640, 700)
	for _, n := range ns {
		var inputs []Regs
		for _, density := range []float64{0, 0.02, 0.25, 0.5, 0.75, 0.9, 1} {
			inputs = append(inputs, regsWithNonzero(rng, n, int(density*float64(n)+0.5)))
		}
		threshold := (4*n + 4) / 5 // smallest dense count
		for k := threshold - 2; k <= threshold+1; k++ {
			inputs = append(inputs, regsWithNonzero(rng, n, k))
		}
		for _, r := range inputs {
			enc := AppendCompact(nil, r)
			want := refAppendCompact(nil, r)
			if !bytes.Equal(enc, want) {
				t.Fatalf("n=%d nonzero=%d: encoding differs from the reference\n got  %x\n want %x", n, countNonzero(r), enc, want)
			}
			checkDecodeAgrees(t, n, enc)
			// Read at a neighbouring length, a register can land in the
			// bitmap's padding bits, which no single-bit flip reaches
			// with a value to go with it.
			for _, m := range []int{n - 1, n + 1} {
				if m >= 0 {
					checkDecodeAgrees(t, m, enc)
				}
			}
			// Every single-bit corruption must get the same verdict.
			flipped := bytes.Clone(enc)
			for b := 0; b < 8*len(enc); b++ {
				flipped[b/8] ^= 1 << uint(b%8)
				checkDecodeAgrees(t, n, flipped)
				flipped[b/8] ^= 1 << uint(b%8)
			}
		}
	}
}

// checkDecodeAgrees decodes data as n registers with the kernel and the
// reference and fails unless both reject it, or both accept it with the
// same registers and the same consumed length.
func checkDecodeAgrees(t *testing.T, n int, data []byte) {
	t.Helper()
	got, want := make(Regs, n), make(Regs, n)
	for i := range got {
		got[i], want[i] = MaxRegisterValue, MaxRegisterValue // decode must overwrite
	}
	consumed, err := DecodeCompact(got, data)
	refConsumed, refErr := refDecodeCompact(want, data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("n=%d data %x: err %v, reference err %v", n, data, err, refErr)
	}
	if err == nil && (consumed != refConsumed || !got.Equal(want)) {
		t.Fatalf("n=%d data %x: decode differs from the reference", n, data)
	}
}

// TestCompactMultiRow pins the multi-array form to back-to-back
// single-array encodings.
func TestCompactMultiRow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 63, 64, 65, 700} {
		a, b := regsWithNonzero(rng, n, n/10), regsWithNonzero(rng, n, n)
		want := AppendCompact(AppendCompact([]byte{0xEE}, a), b)
		if got := AppendCompact([]byte{0xEE}, a, b); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: two-row encoding differs from two single-row encodings", n)
		}
	}
}

// The register-at-a-time kernels the word-at-a-time ones replaced, kept
// verbatim as the reference for TestCompactMatchesReference and
// FuzzCompact.

// refAppendCompact appends the compact encoding of r to dst and returns the
// extended slice.
func refAppendCompact(dst []byte, r Regs) []byte {
	n := len(r)
	nonzero := 0
	for _, v := range r {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero*RegisterBits+n < n*RegisterBits {
		dst = append(dst, 1)
		bitmap := make([]uint64, (n+63)/64)
		vals := make([]uint64, PackedWords(nonzero))
		bit := 0
		for i, v := range r {
			if v == 0 {
				continue
			}
			bitmap[i/64] |= 1 << uint(i%64)
			word, off := bit/64, uint(bit%64)
			vals[word] |= uint64(v&MaxRegisterValue) << off
			if off+RegisterBits > 64 {
				vals[word+1] |= uint64(v&MaxRegisterValue) >> (64 - off)
			}
			bit += RegisterBits
		}
		dst = AppendRunWords(dst, bitmap)
		for _, w := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
		return dst
	}
	dst = append(dst, 0)
	words := make([]uint64, PackedWords(n))
	refPackInto(words, r)
	return AppendRunWords(dst, words)
}

// refDecodeCompact decodes a compact encoding of exactly len(dst) registers
// from the front of data, overwriting dst, and returns the number of bytes
// consumed. Non-canonical encodings (wrong mode for the density, stray
// padding bits, zero sparse values) are rejected.
func refDecodeCompact(dst Regs, data []byte) (int, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("hll: truncated compact encoding")
	}
	n := len(dst)
	switch data[0] {
	case 0:
		words := make([]uint64, PackedWords(n))
		consumed, err := DecodeRunWords(words, data[1:])
		if err != nil {
			return 0, err
		}
		if err := refUnpackInto(dst, words); err != nil {
			return 0, err
		}
		nonzero := 0
		for _, v := range dst {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero*RegisterBits+n < n*RegisterBits {
			return 0, fmt.Errorf("hll: dense encoding for a sparse array")
		}
		return 1 + consumed, nil
	case 1:
		bitmap := make([]uint64, (n+63)/64)
		consumed, err := DecodeRunWords(bitmap, data[1:])
		if err != nil {
			return 0, err
		}
		off := 1 + consumed
		if extra := n % 64; extra != 0 && bitmap[len(bitmap)-1]&^((1<<uint(extra))-1) != 0 {
			return 0, fmt.Errorf("hll: non-canonical bitmap padding")
		}
		nonzero := 0
		for _, w := range bitmap {
			nonzero += bits.OnesCount64(w)
		}
		if nonzero*RegisterBits+n >= n*RegisterBits {
			return 0, fmt.Errorf("hll: sparse encoding for a dense array")
		}
		valWords := PackedWords(nonzero)
		if len(data)-off < valWords*8 {
			return 0, fmt.Errorf("hll: truncated sparse values")
		}
		vals := make([]uint64, valWords)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
		if extra := nonzero * RegisterBits % 64; extra != 0 && vals[valWords-1]&^((1<<uint(extra))-1) != 0 {
			return 0, fmt.Errorf("hll: non-canonical padding bits in sparse values")
		}
		for i := range dst {
			dst[i] = 0
		}
		bit := 0
		for i := 0; i < n; i++ {
			if bitmap[i/64]&(1<<uint(i%64)) == 0 {
				continue
			}
			word, o := bit/64, uint(bit%64)
			v := vals[word] >> o
			if o+RegisterBits > 64 {
				v |= vals[word+1] << (64 - o)
			}
			reg := uint8(v) & MaxRegisterValue
			if reg == 0 {
				return 0, fmt.Errorf("hll: zero register in sparse encoding")
			}
			dst[i] = reg
			bit += RegisterBits
		}
		return off, nil
	}
	return 0, fmt.Errorf("hll: unknown compact mode %d", data[0])
}

// refPackInto packs r (clamping to 5 bits) into words, which must have length
// PackedWords(len(r)). Unused padding bits of the last word are zero, so
// the output is canonical.
func refPackInto(words []uint64, r Regs) {
	for i := range words {
		words[i] = 0
	}
	for i, v := range r {
		if v > MaxRegisterValue {
			v = MaxRegisterValue
		}
		bit := i * RegisterBits
		word, off := bit/64, uint(bit%64)
		words[word] |= uint64(v) << off
		if off+RegisterBits > 64 {
			words[word+1] |= uint64(v) >> (64 - off)
		}
	}
}

// refUnpackInto unpacks words (the canonical packed form of len(dst)
// registers) into dst. It rejects a word slice of the wrong length and
// non-zero padding bits, so every register state has exactly one packed
// form.
func refUnpackInto(dst Regs, words []uint64) error {
	if len(words) != PackedWords(len(dst)) {
		return fmt.Errorf("hll: %d words for %d registers, want %d", len(words), len(dst), PackedWords(len(dst)))
	}
	if extra := len(dst) * RegisterBits % 64; extra != 0 {
		if words[len(words)-1]&^((1<<uint(extra))-1) != 0 {
			return fmt.Errorf("hll: non-canonical padding bits in packed encoding")
		}
	}
	for i := range dst {
		bit := i * RegisterBits
		word, off := bit/64, uint(bit%64)
		v := words[word] >> off
		if off+RegisterBits > 64 {
			v |= words[word+1] << (64 - off)
		}
		dst[i] = uint8(v) & MaxRegisterValue
	}
	return nil
}
