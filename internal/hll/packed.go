package hll

import "fmt"

// The canonical 5-bit packing of a register array into 64-bit words: the
// memory model the paper's accounting assumes, and the payload of the
// compact encoding's dense mode. Register i occupies bits [5i, 5i+5) of
// the little-endian bit stream; unused padding bits of the last word are
// zero. Both directions stream through a 64-bit accumulator, one word
// load or store per 64 bits.

// PackedWords returns the number of 64-bit words the packed form of n
// registers occupies.
func PackedWords(n int) int {
	return (n*RegisterBits + 63) / 64
}

// PackInto packs r (clamping to 5 bits) into words, which must have length
// PackedWords(len(r)). Unused padding bits of the last word are zero, so
// the output is canonical.
func PackInto(words []uint64, r Regs) {
	var acc uint64 // pending bits, low-aligned
	var nb uint    // how many of acc's bits are pending
	k := 0
	for _, v := range r {
		x := uint64(min(v, MaxRegisterValue))
		acc |= x << nb
		nb += RegisterBits
		if nb >= 64 {
			words[k] = acc
			k++
			nb -= 64
			acc = x >> (RegisterBits - nb)
		}
	}
	if nb > 0 {
		words[k] = acc
		k++
	}
	clear(words[k:])
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
	var acc uint64 // unread bits, low-aligned
	var nb uint    // how many of acc's bits are unread
	for i := range dst {
		v := acc
		if nb < RegisterBits {
			x := words[0]
			words = words[1:]
			v |= x << nb
			acc = x >> (RegisterBits - nb)
			nb += 64 - RegisterBits
		} else {
			acc >>= RegisterBits
			nb -= RegisterBits
		}
		dst[i] = uint8(v) & MaxRegisterValue
	}
	return nil
}
