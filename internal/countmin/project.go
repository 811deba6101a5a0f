package countmin

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/xhash"
)

// Flow projections. Estimate reads one counter per row and reads W only
// to find it, so a flow's answer over any set of sketches equals the
// answer over their width-1 projections: each row cut down to the flow's
// counter. The replay of a stored window answers from projections, read
// straight out of each epoch's encoding through a block index
// (AppendIndex, ProjectEncoded), instead of decoding every epoch whole.

// blockCounters is the block index's granularity: one entry every
// blockCounters counters of the row-major counter stream.
const blockCounters = 128

// col returns flow f's counter in row i: the one Estimate and
// EstimateSummed read.
func (s *Sketch) col(f uint64, i int) int {
	return int(s.wDiv.Mod(xhash.Mix64((f ^ s.params.Seed) ^ s.rowPre[i])))
}

// Project returns flow f's width-1 projection: a sketch of W = 1 whose
// rows hold f's counter of each of s's rows. EstimateUnion(f, ...) over
// projections of f is bit-identical to the same call over the sketches
// they were cut from.
func (s *Sketch) Project(f uint64) *Sketch {
	out := New(Params{D: s.params.D, W: 1, Seed: s.params.Seed})
	for i, row := range s.rows {
		out.rows[i][0] = row[s.col(f, i)]
	}
	return out
}

// AppendIndex appends the block index of enc, an encoding from
// MarshalBinaryCompact, to dst: u32 k, the block size in counters, then
// one u32 per block of k counters of the row-major stream, the offset of
// its first counter's varint from the end of the header, and a sentinel
// u32, the payload's length. It is one pass over enc, which must be a
// whole encoding: it counts varint ends eight bytes at a time and checks
// their number, not each varint's value (UnmarshalBinary does).
func AppendIndex(dst, enc []byte) ([]byte, error) {
	p, err := parseHeader(enc)
	if err != nil {
		return dst, err
	}
	body, n := enc[headerLen:], p.D*p.W
	if varintEnds(body) != n || len(body) == 0 || body[len(body)-1] >= 0x80 {
		return dst, fmt.Errorf("countmin: index: payload of %d bytes does not hold %d counters", len(body), n)
	}
	dst = binary.LittleEndian.AppendUint32(dst, blockCounters)
	off := 0
	for c := 0; c < n; c += blockCounters {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(off))
		off += skipVarints(body[off:], min(blockCounters, n-c))
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(off)), nil
}

// CheckEncoded reports whether enc is a d×w sketch encoding and idx its
// block index (AppendIndex): the header's magic and dimensions, the
// index's length and block size, and its sentinel at the end of the
// payload. It reads no counter block; ProjectEncoded checks the blocks it
// reads.
func CheckEncoded(enc, idx []byte, d, w int) error {
	_, _, err := indexedBlocks(enc, idx, d, w)
	return err
}

// indexedBlocks checks enc and idx as CheckEncoded does and returns the
// header's params and the block size.
func indexedBlocks(enc, idx []byte, d, w int) (p Params, k int, err error) {
	if p, err = parseHeader(enc); err != nil {
		return p, 0, err
	}
	if p.D != d || p.W != w {
		return p, 0, fmt.Errorf("countmin: project: encoding is %dx%d, want %dx%d", p.D, p.W, d, w)
	}
	if len(idx) < 4 {
		return p, 0, fmt.Errorf("countmin: project: truncated block index")
	}
	n, k := d*w, int(binary.LittleEndian.Uint32(idx))
	if k == 0 {
		return p, 0, fmt.Errorf("countmin: project: block of 0 counters")
	}
	blocks := (n + k - 1) / k
	if len(idx) != 4+4*(blocks+1) {
		return p, 0, fmt.Errorf("countmin: project: block index of %d bytes, want %d", len(idx), 4+4*(blocks+1))
	}
	if end := int(binary.LittleEndian.Uint32(idx[4+4*blocks:])); end != len(enc)-headerLen {
		return p, 0, fmt.Errorf("countmin: project: the index ends at %d of %d payload bytes", end, len(enc)-headerLen)
	}
	return p, k, nil
}

// ProjectEncoded returns flow f's width-1 projection (Project) of the d×w
// sketch encoded in enc, read through enc's block index idx
// (AppendIndex): per row it reads only the block holding f's counter,
// whose varint ends it counts eight bytes at a time, to check that it
// ends where the next entry says, and it decodes only f's counter.
// An encoding of other dimensions is rejected from its header, as
// UnmarshalBinary rejects it into a sketch of d×w, so what a hostile cell
// can make the reader allocate is one width-1 projection.
func ProjectEncoded(enc, idx []byte, d, w int, f uint64) (*Sketch, error) {
	p, k, err := indexedBlocks(enc, idx, d, w)
	if err != nil {
		return nil, err
	}
	n := d * w
	at := func(b int) int { return int(binary.LittleEndian.Uint32(idx[4+4*b:])) }
	body := enc[headerLen:]
	out := New(Params{D: d, W: 1, Seed: p.Seed})
	hdr := Sketch{params: p}
	hdr.initDerived()
	for i := 0; i < d; i++ {
		c := i*w + hdr.col(f, i)
		b := c / k
		off, end := at(b), at(b+1)
		if off > end || end > len(body) {
			return nil, fmt.Errorf("countmin: project: block %d spans [%d, %d) of %d bytes", b, off, end, len(body))
		}
		// The block holds exactly its counters' varints: as many varint
		// ends (bytes below 0x80) as counters, the last on its last byte.
		blk := body[off:end]
		if cnt := min((b+1)*k, n) - b*k; varintEnds(blk) != cnt || blk[len(blk)-1] >= 0x80 {
			return nil, fmt.Errorf("countmin: project: block %d does not end where the index says", b)
		}
		v, m := binary.Varint(blk[skipVarints(blk, c-b*k):])
		if m <= 0 || !inCounterRange(v) {
			return nil, fmt.Errorf("countmin: project: malformed counter varint %d", c)
		}
		out.rows[i][0] = int32(v)
	}
	return out, nil
}

// varintHigh masks the continuation bit of every byte lane.
const varintHigh = 0x8080808080808080

// varintEnds counts the bytes of b that end a varint (high bit clear).
func varintEnds(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += bits.OnesCount64(^binary.LittleEndian.Uint64(b) & varintHigh)
	}
	for _, x := range b {
		if x < 0x80 {
			n++
		}
	}
	return n
}

// skipVarints returns the offset in b just past its first n varints,
// which b must hold (varintEnds(b) >= n).
func skipVarints(b []byte, n int) int {
	pos := 0
	for n > 0 {
		if pos+8 <= len(b) {
			if e := bits.OnesCount64(^binary.LittleEndian.Uint64(b[pos:]) & varintHigh); e < n {
				n -= e
				pos += 8
				continue
			}
		}
		if b[pos] < 0x80 {
			n--
		}
		pos++
	}
	return pos
}
