package rskt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hll"
)

// wireMagic opens the binary encoding of an rSkt2(HLL) sketch: the header
// (magic, W, M, Seed) followed by each of the two rows as an hll compact
// register array, which run-length encodes the (typically sparse)
// per-epoch state. It is the only encoding; a payload under any other
// magic is rejected.
const wireMagic = 0xA8

// headerLen is the size of the encoding's fixed header.
const headerLen = 1 + 4 + 4 + 8

// parseHeader reads and bounds an encoding's header: the dimensions must
// be valid and plausible before anything is allocated from them (see the
// decoder fuzz tests).
func parseHeader(data []byte) (Params, error) {
	if len(data) < headerLen {
		return Params{}, fmt.Errorf("rskt: truncated sketch encoding")
	}
	if data[0] != wireMagic {
		return Params{}, fmt.Errorf("rskt: bad magic byte %#x (want %#x)", data[0], wireMagic)
	}
	p := Params{
		W:    int(binary.LittleEndian.Uint32(data[1:])),
		M:    int(binary.LittleEndian.Uint32(data[5:])),
		Seed: binary.LittleEndian.Uint64(data[9:]),
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("rskt: decode: %w", err)
	}
	const maxRegisters = 1 << 28
	if p.W > maxRegisters || p.M > maxRegisters || p.W*p.M > maxRegisters {
		return p, fmt.Errorf("rskt: decode: implausible dimensions %dx%d", p.W, p.M)
	}
	return p, nil
}

// MarshalBinaryCompact encodes the sketch little-endian: magic, W, M, Seed,
// then each row as an hll compact register array. hll.AppendCompact sizes
// both rows before writing, so the header grows once, to the exact length.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	p := s.params
	out := make([]byte, 0, headerLen)
	out = append(out, wireMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.W))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.M))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	return hll.AppendCompact(out, s.rows[0], s.rows[1]), nil
}

// UnmarshalBinary decodes a sketch previously encoded by
// MarshalBinaryCompact. A sketch that already has dimensions (anything but
// the zero Sketch) accepts only an encoding of those dimensions, rejected
// from the header before anything is allocated, and reuses its register
// arrays, so a pooled scratch sketch decodes epoch after epoch without
// allocating. The zero Sketch accepts any dimensions. On error the
// register contents are unspecified but the sketch stays structurally
// valid.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	p, err := parseHeader(data)
	if err != nil {
		return err
	}
	w, m := p.W, p.M
	if s.params.W != 0 && (w != s.params.W || m != s.params.M) {
		return fmt.Errorf("rskt: decode: encoding is %dx%d, want %dx%d", w, m, s.params.W, s.params.M)
	}
	off := headerLen
	n := w * m
	rows := s.rows
	for u := range rows {
		if len(rows[u]) != n {
			rows[u] = hll.NewRegs(n)
		}
	}
	for u := 0; u < 2; u++ {
		consumed, err := hll.DecodeCompact(rows[u], data[off:])
		if err != nil {
			return fmt.Errorf("rskt: decode row %d: %w", u, err)
		}
		off += consumed
	}
	if off != len(data) {
		return fmt.Errorf("rskt: %d trailing bytes", len(data)-off)
	}
	s.params = p
	s.rows = rows
	s.initDerived()
	return nil
}
