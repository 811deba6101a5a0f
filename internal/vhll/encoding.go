package vhll

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hll"
)

// wireMagic opens the binary encoding of a vHLL sketch: the header (magic,
// physical and virtual register counts, seed) followed by the shared
// register array as an hll compact register array. Deliberately distinct
// from the rskt magic (0xA8): a transport or checkpoint restored under the
// wrong -sketch backend fails loudly at decode instead of misreading
// registers. It is the only encoding; a payload under any other magic is
// rejected.
const wireMagic = 0xB4

// headerLen is the size of the encoding's fixed header.
const headerLen = 1 + 4 + 4 + 8

// MarshalBinaryCompact encodes the sketch little-endian: magic, physical
// and virtual register counts, seed, then the register array as an hll
// compact register array. hll.AppendCompact sizes the array before
// writing, so the header grows once, to the exact length.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	p := s.params
	out := make([]byte, 0, headerLen)
	out = append(out, wireMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.PhysicalRegisters))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.VirtualRegisters))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	return hll.AppendCompact(out, s.regs), nil
}

// UnmarshalBinary decodes a sketch previously encoded by
// MarshalBinaryCompact. A sketch that already has a size (anything but the
// zero Sketch) accepts only an encoding of that size, rejected from the
// header before anything is allocated, and reuses its register array, so
// a pooled scratch sketch decodes epoch after epoch without allocating.
// The zero Sketch accepts any size. On error the register contents are
// unspecified but the sketch stays structurally valid.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < headerLen {
		return fmt.Errorf("vhll: truncated sketch encoding")
	}
	if data[0] != wireMagic {
		return fmt.Errorf("vhll: bad magic byte %#x (want %#x)", data[0], wireMagic)
	}
	off := 1
	m := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	v := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	seed := binary.LittleEndian.Uint64(data[off:])
	off += 8
	p := Params{PhysicalRegisters: m, VirtualRegisters: v, Seed: seed}
	if s.params.PhysicalRegisters != 0 && (m != s.params.PhysicalRegisters || v != s.params.VirtualRegisters) {
		return fmt.Errorf("vhll: decode: encoding is %d/%d registers, want %d/%d",
			m, v, s.params.PhysicalRegisters, s.params.VirtualRegisters)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("vhll: decode: %w", err)
	}
	// Bound dimensions before trusting them for allocation (see the
	// decoder fuzz tests).
	const maxRegisters = 1 << 28
	if m > maxRegisters {
		return fmt.Errorf("vhll: decode: implausible size %d", m)
	}
	regs := s.regs
	if len(regs) != m {
		regs = hll.NewRegs(m)
	}
	consumed, err := hll.DecodeCompact(regs, data[off:])
	if err != nil {
		return fmt.Errorf("vhll: decode registers: %w", err)
	}
	if off+consumed != len(data) {
		return fmt.Errorf("vhll: %d trailing bytes", len(data)-off-consumed)
	}
	s.params = p
	s.regs = regs
	s.initDerived()
	return nil
}
