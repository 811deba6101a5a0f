package hll

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Block index over a compact register array (AppendCompact): where a
// reader can resume decoding at every k-th register, so one register
// range costs the blocks it touches instead of the whole array. The
// array's bytes stay its one encoding; the index is a separate byte
// string built from them (AppendIndex) and read beside them
// (DecodeRange).
//
// Blocks hold k registers, k a positive multiple of 64, so every block
// starts on a word of the run-length layer in both modes: k*5/64 packed
// words (dense) or k/64 presence-bitmap words (sparse). The index holds
// one entry per block plus a sentinel, IndexEntryLen bytes each,
// little-endian:
//
//	u32 off   offset, from the array's mode byte, of the run token that
//	          holds the block's first word (the sentinel: the offset
//	          just past the run-length layer, where sparse values begin)
//	u32 pos   words of that token before the block's first word
//	u32 rank  set presence bits before the block (sparse; 0 dense)
//
// A position is canonical: a block that starts where a token starts
// points at that token with pos 0. A reader walks a block's words from its
// entry and requires the walk to end exactly at the next entry's
// position, and for sparse rows the next entry's rank to be this rank
// plus the block's set bits; a block that does not end where the next
// entry says is an error.

// IndexEntryLen is the size of one block-index entry.
const IndexEntryLen = 12

// IndexLen returns the length of the block index of an n-register array
// in blocks of k registers.
func IndexLen(n, k int) int { return ((n+k-1)/k + 1) * IndexEntryLen }

// indexEntry is one decoded block-index entry.
type indexEntry struct{ off, pos, rank int }

func entryAt(idx []byte, b int) indexEntry {
	e := idx[b*IndexEntryLen:]
	return indexEntry{
		off:  int(binary.LittleEndian.Uint32(e)),
		pos:  int(binary.LittleEndian.Uint32(e[4:])),
		rank: int(binary.LittleEndian.Uint32(e[8:])),
	}
}

func appendEntry(dst []byte, e indexEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.off))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.pos))
	return binary.LittleEndian.AppendUint32(dst, uint32(e.rank))
}

// layout is what an index reader derives from an array's size, block size
// and mode: the run-length layer's word count, the words per block and
// the block count.
type layout struct {
	sparse                bool
	words, perBlk, blocks int
}

func layoutOf(data []byte, n, k int) (layout, error) {
	if k <= 0 || k%64 != 0 {
		return layout{}, fmt.Errorf("hll: index block of %d registers is not a positive multiple of 64", k)
	}
	if n <= 0 || len(data) < 1 {
		return layout{}, fmt.Errorf("hll: empty compact encoding")
	}
	l := layout{blocks: (n + k - 1) / k}
	switch data[0] {
	case 0:
		l.words, l.perBlk = PackedWords(n), k*RegisterBits/64
	case 1:
		l.sparse, l.words, l.perBlk = true, (n+63)/64, k/64
	default:
		return layout{}, fmt.Errorf("hll: unknown compact mode %d", data[0])
	}
	return l, nil
}

// runToken parses the run token at data[off:]: its word count, whether it
// is a literal run, and the offset of its payload. A token whose run is
// empty or past any u32 position, or whose literal payload overruns data,
// is an error.
func runToken(data []byte, off int) (count int, lit bool, payload int, err error) {
	if off < 1 || off >= len(data) {
		return 0, false, 0, fmt.Errorf("hll: run token offset %d outside %d bytes", off, len(data))
	}
	t, n := binary.Uvarint(data[off:])
	if n <= 0 || t>>1 == 0 || t>>1 > 1<<32 {
		return 0, false, 0, fmt.Errorf("hll: malformed run token at %d", off)
	}
	count, lit, payload = int(t>>1), t&1 == 1, off+n
	if lit && count > (len(data)-payload)/8 {
		return 0, false, 0, fmt.Errorf("hll: truncated literal run at %d", off)
	}
	return count, lit, payload, nil
}

// AppendIndex appends the block index, in blocks of k registers, of the
// compact encoding of n registers at the front of data, and returns the
// extended slice and the encoding's length. It is one pass over the
// run-length layer; a literal run's words are read only in sparse mode,
// to count presence bits.
func AppendIndex(dst, data []byte, n, k int) ([]byte, int, error) {
	l, err := layoutOf(data, n, k)
	if err != nil {
		return dst, 0, err
	}
	off, wi, rank, b := 1, 0, 0, 0
	for wi < l.words {
		count, lit, payload, err := runToken(data, off)
		if err != nil {
			return dst, 0, err
		}
		if count > l.words-wi {
			return dst, 0, fmt.Errorf("hll: run of %d words with %d expected", count, l.words-wi)
		}
		// seen counts the token's words whose presence bits rank holds.
		seen := 0
		for ; b < l.blocks && b*l.perBlk < wi+count; b++ {
			pos := b*l.perBlk - wi
			if l.sparse && lit {
				rank += ones(data[payload+8*seen:], pos-seen)
				seen = pos
			}
			dst = appendEntry(dst, indexEntry{off, pos, rank})
		}
		if l.sparse && lit {
			rank += ones(data[payload+8*seen:], count-seen)
		}
		wi += count
		off = payload
		if lit {
			off += 8 * count
		}
	}
	dst = appendEntry(dst, indexEntry{off: off, rank: rank})
	end := off
	if l.sparse {
		end += 8 * PackedWords(rank)
	}
	if end > len(data) {
		return dst, 0, fmt.Errorf("hll: truncated sparse values")
	}
	return dst, end, nil
}

// ones counts the set bits of the first n little-endian words of b.
func ones(b []byte, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return c
}

// checkIndex validates idx's length for an n-register array in blocks of
// k registers and returns the array's layout and sentinel entry.
func checkIndex(data, idx []byte, n, k int) (layout, indexEntry, error) {
	l, err := layoutOf(data, n, k)
	if err != nil {
		return l, indexEntry{}, err
	}
	if len(idx) != IndexLen(n, k) {
		return l, indexEntry{}, fmt.Errorf("hll: block index of %d bytes, want %d", len(idx), IndexLen(n, k))
	}
	return l, entryAt(idx, l.blocks), nil
}

// IndexedLen returns the length of the compact encoding of n registers at
// the front of data, read from the sentinel of its block index idx.
func IndexedLen(data, idx []byte, n, k int) (int, error) {
	l, s, err := checkIndex(data, idx, n, k)
	if err != nil {
		return 0, err
	}
	end := s.off
	if l.sparse {
		end += 8 * PackedWords(s.rank)
	}
	if s.off < 1 || s.rank > n || end > len(data) {
		return 0, fmt.Errorf("hll: block index sentinel past the encoding")
	}
	return end, nil
}

// DecodeRange decodes registers [lo, lo+len(dst)) of the compact encoding
// of n registers at the front of data into dst, through the encoding's
// block index idx (AppendIndex, blocks of k registers). It walks only the
// blocks the range touches, and each of those whole, to check that it
// ends where the next entry says. For a valid encoding and index the
// registers equal what DecodeCompact gives; a hostile index or encoding
// is an error, never a panic, and allocates only the range's words.
func DecodeRange(dst Regs, data, idx []byte, n, k, lo int) error {
	l, s, err := checkIndex(data, idx, n, k)
	if err != nil {
		return err
	}
	hi := lo + len(dst)
	if lo < 0 || hi > n || lo >= hi {
		return fmt.Errorf("hll: register range [%d, %d) outside %d registers", lo, hi, n)
	}
	// vals is the sparse values' bit stream (sentinel-bounded).
	var vals []byte
	if l.sparse {
		if s.rank > n || s.off < 1 || s.off > len(data) || 8*PackedWords(s.rank) > len(data)-s.off {
			return fmt.Errorf("hll: block index sentinel past the encoding")
		}
		vals = data[s.off : s.off+8*PackedWords(s.rank)]
	}
	for b := lo / k; b*k < hi; b++ {
		e, next := entryAt(idx, b), entryAt(idx, b+1)
		first, last := b*l.perBlk, min((b+1)*l.perBlk, l.words)
		// The range's registers in this block, relative to the block, and
		// the words holding them.
		ra, rb := max(lo, b*k)-b*k, min(hi, (b+1)*k)-b*k
		wa, wb := ra/64, (rb+63)/64
		if !l.sparse {
			wa, wb = ra*RegisterBits/64, (rb*RegisterBits+63)/64
		}
		buf := make([]uint64, min(wb, last-first)-wa)
		end, before, total, err := walkBlock(data, e, last-first, wa, buf, l.sparse)
		if err != nil {
			return fmt.Errorf("hll: block %d: %w", b, err)
		}
		if end != (indexEntry{off: next.off, pos: next.pos}) || l.sparse && e.rank+total != next.rank {
			return fmt.Errorf("hll: block %d does not end where the index says", b)
		}
		out := dst[b*k+ra-lo : b*k+rb-lo]
		if !l.sparse {
			unpackRange(out, buf, ra*RegisterBits-wa*64)
			continue
		}
		// Walk the set presence bits of the range; vi is the value index
		// of the next one.
		clear(out)
		lead := ra % 64 // the range's first bit in buf
		vi := e.rank + before + bits.OnesCount64(buf[0]&(1<<lead-1))
		for j, w := range buf {
			if j == 0 {
				w &^= 1<<lead - 1
			}
			if stop := lead + len(out) - 64*j; stop < 64 {
				w &= 1<<stop - 1
			}
			for ; w != 0; w &= w - 1 {
				if vi >= s.rank {
					return fmt.Errorf("hll: sparse value %d past the %d stored", vi, s.rank)
				}
				i := 64*j + bits.TrailingZeros64(w) - lead
				if out[i] = bitsAt(vals, vi*RegisterBits); out[i] == 0 {
					return fmt.Errorf("hll: zero register in sparse encoding")
				}
				vi++
			}
		}
	}
	return nil
}

// walkBlock reads nw words of the run-length layer from position e,
// copying words [wa, wa+len(buf)) into buf; with count set it also
// counts the set bits of the words before wa and of all nw words. It
// returns the canonical position after the last word.
func walkBlock(data []byte, e indexEntry, nw, wa int, buf []uint64, count bool) (end indexEntry, before, total int, err error) {
	off, pos := e.off, e.pos
	for wi := 0; wi < nw; {
		n, lit, payload, err := runToken(data, off)
		if err != nil {
			return end, 0, 0, err
		}
		if pos >= n {
			return end, 0, 0, fmt.Errorf("position %d past a run of %d words", pos, n)
		}
		take := min(n-pos, nw-wi)
		// The words of buf this stretch of the run covers.
		from, to := max(wa, wi), min(wa+len(buf), wi+take)
		if lit {
			words := data[payload+8*pos:]
			for i := from; i < to; i++ {
				buf[i-wa] = binary.LittleEndian.Uint64(words[8*(i-wi):])
			}
			if count {
				for i := 0; i < take; i++ {
					c := bits.OnesCount64(binary.LittleEndian.Uint64(words[8*i:]))
					if wi+i < wa {
						before += c
					}
					total += c
				}
			}
		} else {
			for i := from; i < to; i++ {
				buf[i-wa] = 0
			}
		}
		wi += take
		pos += take
		if pos == n {
			off, pos = payload, 0
			if lit {
				off += 8 * n
			}
		}
	}
	return indexEntry{off: off, pos: pos}, before, total, nil
}

// unpackRange unpacks len(dst) 5-bit registers from words, starting at
// bit offset bit of the words' little-endian bit stream.
func unpackRange(dst Regs, words []uint64, bit int) {
	for i := range dst {
		b := bit + i*RegisterBits
		v := words[b/64] >> (b % 64)
		if b%64 > 64-RegisterBits && b/64+1 < len(words) {
			v |= words[b/64+1] << (64 - b%64)
		}
		dst[i] = uint8(v) & MaxRegisterValue
	}
}

// bitsAt reads the 5-bit value at bit offset bit of the little-endian
// word stream b, which holds all five of its bits.
func bitsAt(b []byte, bit int) uint8 {
	w := bit / 64
	v := binary.LittleEndian.Uint64(b[8*w:]) >> (bit % 64)
	if bit%64 > 64-RegisterBits {
		v |= binary.LittleEndian.Uint64(b[8*(w+1):]) << (64 - bit%64)
	}
	return uint8(v) & MaxRegisterValue
}
