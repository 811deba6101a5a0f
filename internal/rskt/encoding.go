package rskt

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hll"
)

// Wire magics for the two binary encodings of an rSkt2(HLL) sketch. The
// fixed encoding ships every register; the compact one run-length encodes
// the (typically sparse) per-epoch state and is negotiated per connection.
// UnmarshalBinary accepts both, so buffered uploads survive a codec
// renegotiation and checkpoints written by either codec restore.
const (
	wireMagic        = 0xA7
	wireMagicCompact = 0xA8
)

// appendHeader writes the shared encoding header: magic, W, M, Seed.
func (s *Sketch) appendHeader(out []byte, magic byte) []byte {
	p := s.params
	out = append(out, magic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.W))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.M))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	return out
}

// MarshalBinary encodes the sketch with 5-bit register packing (the
// paper's memory model), little-endian: magic, W, M, Seed, then per row a
// word count and the packed words.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	p := s.params
	wordsPerRow := hll.PackedWords(p.W * p.M)
	out := make([]byte, 0, 1+4+4+8+2*(4+wordsPerRow*8))
	out = s.appendHeader(out, wireMagic)
	words := make([]uint64, wordsPerRow)
	for u := 0; u < 2; u++ {
		hll.PackInto(words, s.rows[u])
		out = binary.LittleEndian.AppendUint32(out, uint32(len(words)))
		for _, w := range words {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
	}
	return out, nil
}

// MarshalBinaryCompact encodes the sketch in the compact (run-length)
// form: the same header under wireMagicCompact, then each row as an
// hll compact register array.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	out := make([]byte, 0, 64)
	out = s.appendHeader(out, wireMagicCompact)
	for u := 0; u < 2; u++ {
		out = hll.AppendCompact(out, s.rows[u])
	}
	return out, nil
}

// UnmarshalBinary decodes a sketch previously encoded by MarshalBinary or
// MarshalBinaryCompact, dispatching on the magic byte. When s already has
// the decoded dimensions its register arrays are reused, so a pooled
// scratch sketch decodes epoch after epoch without allocating; on error the
// register contents are unspecified but the sketch stays structurally
// valid.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 1+4+4+8 {
		return fmt.Errorf("rskt: truncated sketch encoding")
	}
	magic := data[0]
	if magic != wireMagic && magic != wireMagicCompact {
		return fmt.Errorf("rskt: bad magic byte %#x", data[0])
	}
	off := 1
	w := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	m := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	seed := binary.LittleEndian.Uint64(data[off:])
	off += 8
	p := Params{W: w, M: m, Seed: seed}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("rskt: decode: %w", err)
	}
	// Bound dimensions before trusting them for allocation (see the
	// decoder fuzz tests).
	const maxRegisters = 1 << 28
	if w > maxRegisters || m > maxRegisters || w*m > maxRegisters {
		return fmt.Errorf("rskt: decode: implausible dimensions %dx%d", w, m)
	}
	n := w * m
	rows := s.rows
	for u := range rows {
		if len(rows[u]) != n {
			rows[u] = hll.NewRegs(n)
		}
	}
	if magic == wireMagic {
		want := hll.PackedWords(n)
		words := make([]uint64, want)
		for u := 0; u < 2; u++ {
			if len(data[off:]) < 4 {
				return fmt.Errorf("rskt: truncated row header")
			}
			count := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if count != want {
				return fmt.Errorf("rskt: %d words for %d registers, want %d", count, n, want)
			}
			if len(data[off:]) < count*8 {
				return fmt.Errorf("rskt: truncated row payload")
			}
			for i := range words {
				words[i] = binary.LittleEndian.Uint64(data[off:])
				off += 8
			}
			if err := hll.UnpackInto(rows[u], words); err != nil {
				return fmt.Errorf("rskt: decode row %d: %w", u, err)
			}
		}
	} else {
		for u := 0; u < 2; u++ {
			consumed, err := hll.DecodeCompact(rows[u], data[off:])
			if err != nil {
				return fmt.Errorf("rskt: decode row %d: %w", u, err)
			}
			off += consumed
		}
	}
	if off != len(data) {
		return fmt.Errorf("rskt: %d trailing bytes", len(data)-off)
	}
	s.params = p
	s.rows = rows
	s.initDerived()
	return nil
}
