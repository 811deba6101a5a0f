package countmin

import (
	"encoding/binary"
	"fmt"
)

// wireMagic opens the binary encoding of a CountMin sketch: the header
// (magic, D, W, Seed) followed by the D*W counters row-major as zigzag
// varints, since a fresh epoch's counters are mostly zero or small (one
// byte each). It is the only encoding; a payload under any other magic is
// rejected.
const wireMagic = 0xC4

// MarshalBinaryCompact encodes the sketch little-endian: magic, D, W, Seed,
// then the D*W counters row-major as zigzag varints.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	p := s.params
	out := make([]byte, 0, 1+4+4+8+p.D*p.W)
	out = append(out, wireMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.D))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.W))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	for _, row := range s.rows {
		for _, v := range row {
			out = binary.AppendVarint(out, v)
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a sketch previously encoded by
// MarshalBinaryCompact. A sketch that already has dimensions (anything but
// the zero Sketch) accepts only an encoding of those dimensions, rejected
// from the header before anything is allocated, and reuses its counter
// rows, so a pooled scratch sketch decodes epoch after epoch without
// allocating. The zero Sketch accepts any dimensions. On error the counter
// contents are unspecified but the sketch stays structurally valid.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 1+4+4+8 {
		return fmt.Errorf("countmin: truncated sketch encoding")
	}
	if data[0] != wireMagic {
		return fmt.Errorf("countmin: bad magic byte %#x (want %#x)", data[0], wireMagic)
	}
	off := 1
	d := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	w := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	seed := binary.LittleEndian.Uint64(data[off:])
	off += 8
	p := Params{D: d, W: w, Seed: seed}
	if s.params.W != 0 && (d != s.params.D || w != s.params.W) {
		return fmt.Errorf("countmin: decode: encoding is %dx%d, want %dx%d", d, w, s.params.D, s.params.W)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("countmin: decode: %w", err)
	}
	// Bound dimensions before trusting them for allocation: a hostile
	// header must not drive memory use or overflow the size arithmetic.
	const maxCells = 1 << 28
	if d > maxCells || w > maxCells || d*w > maxCells {
		return fmt.Errorf("countmin: decode: implausible dimensions %dx%d", d, w)
	}
	// Every counter takes at least one varint byte.
	if len(data)-off < d*w {
		return fmt.Errorf("countmin: %d payload bytes for %d counters", len(data)-off, d*w)
	}
	rows := s.rows
	if len(rows) != d {
		rows = make([][]int64, d)
	}
	for i := range rows {
		if len(rows[i]) != w {
			rows[i] = make([]int64, w)
		}
	}
	for i := range rows {
		for j := range rows[i] {
			v, n := binary.Varint(data[off:])
			if n <= 0 {
				return fmt.Errorf("countmin: truncated or malformed counter varint (row %d, col %d)", i, j)
			}
			// Reject overlong varints (trailing zero continuation group):
			// encodings stay canonical.
			if n > 1 && data[off+n-1] == 0 {
				return fmt.Errorf("countmin: non-minimal counter varint (row %d, col %d)", i, j)
			}
			rows[i][j] = v
			off += n
		}
	}
	if off != len(data) {
		return fmt.Errorf("countmin: %d trailing bytes", len(data)-off)
	}
	s.params = p
	s.rows = rows
	s.initDerived()
	return nil
}
