package hll

import "fmt"

// The canonical 5-bit packing of a register array into 64-bit words: the
// memory model the paper's accounting assumes, and the payload of the
// compact encoding's dense mode. Register i occupies bits [5i, 5i+5) of
// the little-endian bit stream; unused padding bits of the last word are
// zero.

// PackedWords returns the number of 64-bit words the packed form of n
// registers occupies.
func PackedWords(n int) int {
	return (n*RegisterBits + 63) / 64
}

// PackInto packs r (clamping to 5 bits) into words, which must have length
// PackedWords(len(r)). Unused padding bits of the last word are zero, so
// the output is canonical.
func PackInto(words []uint64, r Regs) {
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

// UnpackInto unpacks words (the canonical packed form of len(dst)
// registers) into dst. It rejects a word slice of the wrong length and
// non-zero padding bits, so every register state has exactly one packed
// form.
func UnpackInto(dst Regs, words []uint64) error {
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
