package vhll

import (
	"fmt"

	"repro/internal/hll"
)

// The methods below make vHLL usable as the epoch sketch of the paper's
// three-sketch design (core.SpreadSketch): the shared register array plays
// the role of the sketch's columns, and expand-and-compress works exactly
// as for rSkt2 because a flow's cell indexes are computed modulo the array
// size — with power-of-two size ratios, index mod small = (index mod big)
// mod small, so column replication preserves every flow's view.

// Width returns the physical register count (the size that varies under
// device diversity).
func (s *Sketch) Width() int { return s.params.PhysicalRegisters }

// Compatible reports whether two sketches can be joined after width
// alignment: same per-flow virtual estimator size and same hash seed.
func (s *Sketch) Compatible(o *Sketch) bool {
	return o != nil &&
		s.params.VirtualRegisters == o.params.VirtualRegisters &&
		s.params.Seed == o.params.Seed
}

// CopyFrom overwrites s's registers with o's.
func (s *Sketch) CopyFrom(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("vhll: copy parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	copy(s.regs, o.regs)
	return nil
}

// ExpandTo replicates the register array to mBig physical registers
// (expanded[i] = s[i mod m]); mBig must be a multiple of the current size.
func (s *Sketch) ExpandTo(mBig int) (*Sketch, error) {
	m := s.params.PhysicalRegisters
	if mBig%m != 0 {
		return nil, fmt.Errorf("vhll: expand target %d not a multiple of size %d", mBig, m)
	}
	q := s.params
	q.PhysicalRegisters = mBig
	out, err := New(q)
	if err != nil {
		return nil, err
	}
	for i := 0; i < mBig; i += m {
		copy(out.regs[i:], s.regs)
	}
	return out, nil
}

// CompressTo folds the register array down to mSmall physical registers by
// register-wise max over the folds; mSmall must divide the current size.
func (s *Sketch) CompressTo(mSmall int) (*Sketch, error) {
	m := s.params.PhysicalRegisters
	if m%mSmall != 0 {
		return nil, fmt.Errorf("vhll: compress target %d does not divide size %d", mSmall, m)
	}
	q := s.params
	q.PhysicalRegisters = mSmall
	out, err := New(q)
	if err != nil {
		return nil, err
	}
	for base := 0; base < m; base += mSmall {
		hll.MergeMaxBytes(out.regs, s.regs[base:base+mSmall])
	}
	return out, nil
}

// Project returns the sketch itself. Unlike rSkt2 and CountMin, a flow's
// vHLL estimate reads every register (the noise term is the whole array's
// estimate), so no smaller sketch answers for one flow, and the replay of
// a stored vHLL window decodes each epoch whole.
func (s *Sketch) Project(uint64) *Sketch { return s }

// HeapBytes returns the bytes the sketch's registers hold in memory: one
// per register.
func (s *Sketch) HeapBytes() int { return len(s.regs) }
