package rskt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// Flow projections. EstimateUnion reads one column of M registers in each
// row, and reads W only to find that column, so a flow's answer over any
// set of sketches equals the answer over their width-1 projections: each
// row cut down to the flow's column. The replay of a stored window
// answers from projections, read straight out of each epoch's encoding
// through a block index (AppendIndex, ProjectEncoded), instead of
// decoding every epoch whole.

// blockColumns is the block index's granularity: one entry every
// blockColumns estimator columns of a row, rounded up to whole 64-register
// words.
const blockColumns = 16

// blockRegisters returns the block size, in registers, of the index of a
// sketch with m registers per estimator.
func blockRegisters(m int) int { return (blockColumns*m + 63) / 64 * 64 }

// column returns flow f's estimator column.
func (s *Sketch) column(f uint64) int {
	return int(s.wDiv.Mod(xhash.Mix64((f ^ s.params.Seed) ^ preColumn)))
}

// Project returns flow f's width-1 projection: a sketch of W = 1 whose two
// rows hold f's column of s's rows. EstimateUnion(f, ...) over
// projections of f is bit-identical to the same call over the sketches
// they were cut from.
func (s *Sketch) Project(f uint64) *Sketch {
	m := s.params.M
	out := New(Params{W: 1, M: m, Seed: s.params.Seed})
	base := s.column(f) * m
	copy(out.rows[0], s.rows[0][base:base+m])
	copy(out.rows[1], s.rows[1][base:base+m])
	return out
}

// AppendIndex appends the block index of enc, an encoding from
// MarshalBinaryCompact, to dst: u32 k, the block size in registers, then
// each row's hll block index (hll.AppendIndex) in blocks of k registers.
// It is one pass over enc, which must be a whole encoding.
func AppendIndex(dst, enc []byte) ([]byte, error) {
	p, err := parseHeader(enc)
	if err != nil {
		return dst, err
	}
	n, k := p.W*p.M, blockRegisters(p.M)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	off := headerLen
	for u := 0; u < 2; u++ {
		var l int
		if dst, l, err = hll.AppendIndex(dst, enc[off:], n, k); err != nil {
			return dst, fmt.Errorf("rskt: index row %d: %w", u, err)
		}
		off += l
	}
	if off != len(enc) {
		return dst, fmt.Errorf("rskt: %d trailing bytes", len(enc)-off)
	}
	return dst, nil
}

// CheckEncoded reports whether enc is a w×m sketch encoding and idx its
// block index (AppendIndex): the header's magic and dimensions, the
// index's length and block size, and each row's array ending where the
// index's sentinel says, the last at the end of enc. It reads no register
// block; ProjectEncoded checks the blocks it walks.
func CheckEncoded(enc, idx []byte, w, m int) error {
	_, _, _, err := indexedRows(enc, idx, w, m)
	return err
}

// indexedRows checks enc and idx as CheckEncoded does and returns the
// header's params, the block size and where each row's array starts.
func indexedRows(enc, idx []byte, w, m int) (p Params, k int, rows [2]int, err error) {
	if p, err = parseHeader(enc); err != nil {
		return p, 0, rows, err
	}
	if p.W != w || p.M != m {
		return p, 0, rows, fmt.Errorf("rskt: project: encoding is %dx%d, want %dx%d", p.W, p.M, w, m)
	}
	if len(idx) < 4 {
		return p, 0, rows, fmt.Errorf("rskt: project: truncated block index")
	}
	n, k := w*m, int(binary.LittleEndian.Uint32(idx))
	if k == 0 {
		return p, 0, rows, fmt.Errorf("rskt: project: block of %d registers", k)
	}
	rowIdx := hll.IndexLen(n, k)
	if len(idx) != 4+2*rowIdx {
		return p, 0, rows, fmt.Errorf("rskt: project: block index of %d bytes, want %d", len(idx), 4+2*rowIdx)
	}
	off := headerLen
	for u := 0; u < 2; u++ {
		rows[u] = off
		l, err := hll.IndexedLen(enc[off:], idx[4+u*rowIdx:4+(u+1)*rowIdx], n, k)
		if err != nil {
			return p, 0, rows, fmt.Errorf("rskt: project row %d: %w", u, err)
		}
		off += l
	}
	if off != len(enc) {
		return p, 0, rows, fmt.Errorf("rskt: project: the index ends %d bytes before the encoding", len(enc)-off)
	}
	return p, k, rows, nil
}

// ProjectEncoded returns flow f's width-1 projection (Project) of the w×m
// sketch encoded in enc, read through enc's block index idx
// (AppendIndex): only the blocks that hold f's column in each row are
// walked. An encoding of other dimensions is rejected from its header, as
// UnmarshalBinary rejects it into a sketch of w×m, so what a hostile cell
// can make the reader allocate is one width-1 projection and a few words.
func ProjectEncoded(enc, idx []byte, w, m int, f uint64) (*Sketch, error) {
	p, k, rows, err := indexedRows(enc, idx, w, m)
	if err != nil {
		return nil, err
	}
	n := w * m
	rowIdx := hll.IndexLen(n, k)
	hdr := Sketch{params: p}
	hdr.initDerived()
	lo := hdr.column(f) * m
	out := New(Params{W: 1, M: m, Seed: p.Seed})
	for u, off := range rows {
		ri := idx[4+u*rowIdx : 4+(u+1)*rowIdx]
		if err := hll.DecodeRange(out.rows[u], enc[off:], ri, n, k, lo); err != nil {
			return nil, fmt.Errorf("rskt: project row %d: %w", u, err)
		}
	}
	return out, nil
}
