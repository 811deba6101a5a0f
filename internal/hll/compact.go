package hll

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Compact wire encoding for register arrays. Epoch uploads are dominated by
// register payloads, and a real epoch is sparse: most columns of a spread
// sketch saw no packet. The compact form exploits that at two levels.
//
// The word layer (AppendRunWords/DecodeRunWords) run-length encodes 64-bit
// words: a stream of varint tokens t, each covering t>>1 words — zero words
// when t&1 == 0, literal little-endian words (following the token) when
// t&1 == 1. Runs are maximal and never empty, so every word slice has
// exactly one encoding and a decoder can reject zero-progress input.
//
// The array layer (AppendCompact/DecodeCompact) prefixes one mode byte:
//
//	mode 0 (dense):  run-length words of the canonical 5-bit packing
//	mode 1 (sparse): run-length words of a presence bitmap (one bit per
//	                 register) followed by the nonzero register values, 5
//	                 bits each, packed into raw little-endian words
//
// The encoder picks sparse exactly when it wins on payload bits
// (5*nonzero + n < 5*n); the decoder enforces the same rule, plus zero
// padding bits and nonzero sparse values, so compact encodings stay
// canonical like the fixed packed form.
//
// Both directions work a word at a time. The encoder builds the presence
// bitmap one word per 64 registers (presence, a register kernel), sizes
// its output exactly before writing, and packs the sparse values by
// walking set bitmap bits into a 64-bit accumulator that goes straight to
// the output. The decoder walks the same set bits and reads the values in
// place from the input.

const (
	// swarLow7 masks the low seven bits of every byte lane.
	swarLow7 = 0x7F7F7F7F7F7F7F7F
	// gatherHigh moves bit 8k+7 of a word to bit 56+k of the product:
	// every partial product lands on its own bit, so nothing carries.
	gatherHigh = 0x0002040810204081
)

// nonzeroLanes returns x with the high bit of every nonzero byte lane set
// and every other bit clear. It holds for any byte values: the masked add
// cannot carry out of a lane, and the OR catches lanes >= 0x80.
func nonzeroLanes(x uint64) uint64 {
	return ((x&swarLow7 + swarLow7) | x) & swarHigh
}

// presence8 returns one bit per byte lane of x, bit k set when lane k is
// nonzero.
func presence8(x uint64) uint64 {
	return nonzeroLanes(x) * gatherHigh >> 56
}

// presenceSWAR, presence's portable kernel, fills bitmap, which must
// have (len(r)+63)/64 words, with r's presence bitmap (bit i%64 of word
// i/64 set when r[i] != 0), eight registers per 64-bit load.
func presenceSWAR(bitmap []uint64, r Regs) {
	full := len(r) / 64
	for wi := 0; wi < full; wi++ {
		c := r[wi*64 : wi*64+64]
		w := presence8(binary.LittleEndian.Uint64(c[0:])) |
			presence8(binary.LittleEndian.Uint64(c[8:]))<<8 |
			presence8(binary.LittleEndian.Uint64(c[16:]))<<16 |
			presence8(binary.LittleEndian.Uint64(c[24:]))<<24 |
			presence8(binary.LittleEndian.Uint64(c[32:]))<<32 |
			presence8(binary.LittleEndian.Uint64(c[40:]))<<40 |
			presence8(binary.LittleEndian.Uint64(c[48:]))<<48 |
			presence8(binary.LittleEndian.Uint64(c[56:]))<<56
		bitmap[wi] = w
	}
	if tail := r[full*64:]; len(tail) > 0 {
		var w uint64
		for i, v := range tail {
			if v != 0 {
				w |= 1 << uint(i)
			}
		}
		bitmap[full] = w
	}
}

// countNonzero returns the number of nonzero registers in r.
func countNonzero(r Regs) int {
	nonzero := 0
	i := 0
	for ; i+8 <= len(r); i += 8 {
		nonzero += bits.OnesCount64(nonzeroLanes(binary.LittleEndian.Uint64(r[i:])))
	}
	for ; i < len(r); i++ {
		if r[i] != 0 {
			nonzero++
		}
	}
	return nonzero
}

// sparseWins reports whether an array of n registers, nonzero of them
// set, takes the sparse mode: the one rule encoder and decoder share.
func sparseWins(nonzero, n int) bool {
	return nonzero*RegisterBits+n < n*RegisterBits
}

// AppendRunWords appends the run-length encoding of words to dst and
// returns the extended slice.
func AppendRunWords(dst []byte, words []uint64) []byte {
	for i := 0; i < len(words); {
		j := i
		if words[i] == 0 {
			for j < len(words) && words[j] == 0 {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1)
		} else {
			for j < len(words) && words[j] != 0 {
				j++
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			for _, w := range words[i:j] {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
		i = j
	}
	return dst
}

// runWordsLen returns the number of bytes AppendRunWords appends for words.
func runWordsLen(words []uint64) int {
	size := 0
	for i := 0; i < len(words); {
		lit := words[i] != 0
		j := i + 1
		for j < len(words) && (words[j] != 0) == lit {
			j++
		}
		tok := uint64(j-i) << 1
		if lit {
			tok |= 1
			size += 8 * (j - i)
		}
		size += (bits.Len64(tok|1) + 6) / 7
		i = j
	}
	return size
}

// DecodeRunWords decodes exactly len(dst) run-length-encoded words from the
// front of data, returning the number of bytes consumed. Decoding is
// strict: empty or overlong runs, adjacent runs of the same type, and zero
// words inside a literal run are all rejected, so exactly one byte string
// decodes to any given word slice.
func DecodeRunWords(dst []uint64, data []byte) (int, error) {
	off := 0
	filled := 0
	prevType := -1
	for filled < len(dst) {
		t, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("hll: truncated or malformed run token")
		}
		// A trailing 0x00 group means a shorter encoding of the same token
		// exists; accepting it would give one word slice two encodings.
		if n > 1 && data[off+n-1] == 0 {
			return 0, fmt.Errorf("hll: non-minimal run token")
		}
		off += n
		count := t >> 1
		runType := int(t & 1)
		if count == 0 || count > uint64(len(dst)-filled) {
			return 0, fmt.Errorf("hll: run of %d words with %d expected", count, len(dst)-filled)
		}
		if runType == prevType {
			return 0, fmt.Errorf("hll: non-maximal run encoding")
		}
		prevType = runType
		if runType == 0 {
			for i := 0; i < int(count); i++ {
				dst[filled+i] = 0
			}
		} else {
			if len(data)-off < int(count)*8 {
				return 0, fmt.Errorf("hll: truncated literal run")
			}
			for i := 0; i < int(count); i++ {
				w := binary.LittleEndian.Uint64(data[off:])
				if w == 0 {
					return 0, fmt.Errorf("hll: zero word in literal run")
				}
				dst[filled+i] = w
				off += 8
			}
		}
		filled += int(count)
	}
	return off, nil
}

// compactPlan is one array's encoding, decided before a byte is written:
// the mode, the words the run-length layer carries (the presence bitmap
// for sparse, the 5-bit packing for dense) and the exact encoded size.
type compactPlan struct {
	sparse bool
	words  []uint64
	size   int
}

func planCompact(r Regs) compactPlan {
	n := len(r)
	bitmap := make([]uint64, (n+63)/64)
	presence(bitmap, r)
	nonzero := 0
	for _, w := range bitmap {
		nonzero += bits.OnesCount64(w)
	}
	if sparseWins(nonzero, n) {
		return compactPlan{
			sparse: true,
			words:  bitmap,
			size:   1 + runWordsLen(bitmap) + 8*PackedWords(nonzero),
		}
	}
	words := make([]uint64, PackedWords(n))
	PackInto(words, r)
	return compactPlan{words: words, size: 1 + runWordsLen(words)}
}

// appendTo writes the planned encoding of r to dst.
func (p *compactPlan) appendTo(dst []byte, r Regs) []byte {
	if !p.sparse {
		return AppendRunWords(append(dst, 0), p.words)
	}
	dst = AppendRunWords(append(dst, 1), p.words)
	var acc uint64 // pending value bits, low-aligned
	var nb uint    // how many of acc's bits are pending
	for wi, w := range p.words {
		regs := r[wi*64:]
		for w != 0 {
			v := uint64(regs[bits.TrailingZeros64(w)] & MaxRegisterValue)
			w &= w - 1
			acc |= v << nb
			nb += RegisterBits
			if nb >= 64 {
				dst = binary.LittleEndian.AppendUint64(dst, acc)
				nb -= 64
				acc = v >> (RegisterBits - nb)
			}
		}
	}
	if nb > 0 {
		dst = binary.LittleEndian.AppendUint64(dst, acc)
	}
	return dst
}

// AppendCompact appends the compact encoding of each register array in
// rows to dst, back to back, and returns the extended slice. Every array's
// encoding is sized before any is written, so dst grows at most once.
func AppendCompact(dst []byte, rows ...Regs) []byte {
	var buf [2]compactPlan
	plans := buf[:0]
	size := 0
	for _, r := range rows {
		p := planCompact(r)
		size += p.size
		plans = append(plans, p)
	}
	dst = slices.Grow(dst, size)
	for i := range plans {
		dst = plans[i].appendTo(dst, rows[i])
	}
	return dst
}

// DecodeCompact decodes a compact encoding of exactly len(dst) registers
// from the front of data, overwriting dst, and returns the number of bytes
// consumed. Non-canonical encodings (wrong mode for the density, stray
// padding bits, zero sparse values) are rejected.
func DecodeCompact(dst Regs, data []byte) (int, error) {
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
		if err := UnpackInto(dst, words); err != nil {
			return 0, err
		}
		if sparseWins(countNonzero(dst), n) {
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
		if !sparseWins(nonzero, n) {
			return 0, fmt.Errorf("hll: sparse encoding for a dense array")
		}
		valWords := PackedWords(nonzero)
		if len(data)-off < valWords*8 {
			return 0, fmt.Errorf("hll: truncated sparse values")
		}
		vals := data[off : off+valWords*8]
		if extra := nonzero * RegisterBits % 64; extra != 0 &&
			binary.LittleEndian.Uint64(vals[len(vals)-8:])&^((1<<uint(extra))-1) != 0 {
			return 0, fmt.Errorf("hll: non-canonical padding bits in sparse values")
		}
		clear(dst)
		var acc uint64 // unread value bits, low-aligned
		var nb uint    // how many of acc's bits are unread
		for wi, w := range bitmap {
			out := dst[wi*64:]
			for w != 0 {
				v := acc
				if nb < RegisterBits {
					x := binary.LittleEndian.Uint64(vals)
					vals = vals[8:]
					v |= x << nb
					acc = x >> (RegisterBits - nb)
					nb += 64 - RegisterBits
				} else {
					acc >>= RegisterBits
					nb -= RegisterBits
				}
				reg := uint8(v) & MaxRegisterValue
				if reg == 0 {
					return 0, fmt.Errorf("hll: zero register in sparse encoding")
				}
				out[bits.TrailingZeros64(w)] = reg
				w &= w - 1
			}
		}
		return off + valWords*8, nil
	}
	return 0, fmt.Errorf("hll: unknown compact mode %d", data[0])
}
