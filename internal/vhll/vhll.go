// Package vhll implements the virtual HyperLogLog estimator (Xiao et al.,
// SIGMETRICS 2015, the paper's reference [18]): per-flow spread estimation
// by *register sharing*. All flows share one physical array of HLL
// registers; each flow owns a virtual estimator of s registers scattered
// pseudo-randomly through the array, and the noise other flows leave in
// the shared registers is subtracted in expectation using the whole
// array's estimate.
//
// rSkt2 (the sketch the paper builds on) improves on vHLL by cancelling
// noise per flow with its two-row construction rather than subtracting a
// global average; this package exists as the comparison substrate (see the
// ablation-vhll experiment) and as an alternative epoch sketch for
// single-point deployments.
package vhll

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/hll"
	"repro/internal/xhash"
)

// Seed offsets for the sketch's hash functions.
const (
	seedVirtual  = 0x77aa
	seedRegister = 0x3c19
	seedGeo      = 0x9d05
)

// Precomputed inner seed mixes: Hash64(x, s) = Mix64(x ^ Mix64(s)) and the
// offsets above are constants, so the record path hoists Mix64(seed) here
// (bit-identical, one Mix64 per decision instead of two).
var (
	preVirtual = xhash.Mix64(seedVirtual)
	preGeo     = xhash.Mix64(seedGeo)
)

// DefaultVirtualRegisters is the per-flow virtual estimator size used by
// the original paper's evaluation.
const DefaultVirtualRegisters = 128

// Params configures a vHLL sketch.
type Params struct {
	// PhysicalRegisters is the size of the shared register array.
	PhysicalRegisters int
	// VirtualRegisters is the per-flow virtual estimator size (s).
	VirtualRegisters int
	// Seed is the hash seed.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.PhysicalRegisters <= 0 || p.VirtualRegisters <= 0 {
		return fmt.Errorf("vhll: register counts must be positive: %+v", p)
	}
	if p.VirtualRegisters > p.PhysicalRegisters {
		return fmt.Errorf("vhll: virtual estimator (%d) larger than physical array (%d)",
			p.VirtualRegisters, p.PhysicalRegisters)
	}
	return nil
}

// PhysicalForMemory returns the physical register count fitting memBits
// bits at hll.RegisterBits per register.
func PhysicalForMemory(memBits int) int {
	m := memBits / hll.RegisterBits
	if m < 1 {
		m = 1
	}
	return m
}

// Sketch is a vHLL instance. Writes are not safe for concurrent use, but
// Estimate/EstimateUnion are read-only and safe to call concurrently with
// each other (each call uses caller-local buffers, not shared scratch).
type Sketch struct {
	params Params
	regs   hll.Regs
	// Derived per-packet constants, set by initDerived wherever params are
	// assigned: precomputed seed mixes and multiply-based moduli.
	preSeed    uint64 // Mix64(Seed), the G(f, e) inner hash
	preRegSeed uint64 // Mix64(Seed ^ seedRegister), the register-scatter hash
	vDiv, pDiv xhash.Divisor
}

// initDerived recomputes the record-path constants from s.params. Every
// assignment to s.params must be followed by a call to it.
func (s *Sketch) initDerived() {
	s.preSeed = xhash.Mix64(s.params.Seed)
	s.preRegSeed = xhash.Mix64(s.params.Seed ^ seedRegister)
	s.vDiv = xhash.NewDivisor(s.params.VirtualRegisters)
	s.pDiv = xhash.NewDivisor(s.params.PhysicalRegisters)
}

// New creates a zeroed sketch.
func New(p Params) (*Sketch, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Sketch{
		params: p,
		regs:   hll.NewRegs(p.PhysicalRegisters),
	}
	s.initDerived()
	return s, nil
}

// Params returns the configuration.
func (s *Sketch) Params() Params { return s.params }

// Record inserts packet <f, e>.
func (s *Sketch) Record(f, e uint64) {
	s.RecordSlot(s.Slot(f, e))
}

// Slot is a fully resolved per-packet recording decision: which shared
// register receives which geometric value. It is valid for any sketch
// sharing the parameters of the sketch that computed it.
type Slot struct {
	Reg int   // index into the shared physical register array
	Val uint8 // geometric register value, already clamped
}

// Slot computes the recording decision for packet <f, e> once, so callers
// holding several same-parameter sketches hash once and apply the slot to
// each. Bit-identical to the decisions Record has always made (the xhash
// calls with seed mixes hoisted and % replaced by Divisor.Mod).
func (s *Sketch) Slot(f, e uint64) Slot {
	p := &s.params
	i := s.vDiv.Mod(xhash.Mix64((e ^ p.Seed) ^ preVirtual))
	reg := s.pDiv.Mod(xhash.Mix64(xhash.Mix64(f^s.preRegSeed) ^ i))
	v := geoValue(xhash.Mix64(xhash.Mix64(xhash.Mix64(f^s.preSeed)^e) ^ preGeo))
	return Slot{Reg: int(reg), Val: v}
}

// RecordSlot applies a previously computed slot to the sketch. The slot
// must come from a sketch with identical parameters.
func (s *Sketch) RecordSlot(sl Slot) {
	if s.regs[sl.Reg] < sl.Val {
		s.regs[sl.Reg] = sl.Val
	}
}

// geoValue finishes xhash.Geometric from the already-mixed hash: leading
// zeros + 1, capped at the register maximum.
func geoValue(h uint64) uint8 {
	rho := uint8(bits.LeadingZeros64(h)) + 1
	if rho > hll.MaxRegisterValue {
		rho = hll.MaxRegisterValue
	}
	return rho
}

// Estimate returns the spread estimate for flow f: the virtual estimator's
// raw estimate minus the expected share of the whole array's cardinality
// (the register-sharing noise term). Read-only and safe for concurrent
// callers.
func (s *Sketch) Estimate(f uint64) float64 {
	return s.EstimateUnion(f, nil)
}

// EstimateUnion returns the spread estimate for flow f over the
// register-wise max of s and others, without mutating anything:
// bit-identical to MergeMax-ing every other sketch into s first and calling
// Estimate. All others must share s's parameters. Read-only and safe for
// concurrent callers.
func (s *Sketch) EstimateUnion(f uint64, others []*Sketch) float64 {
	p := &s.params
	// The register-scatter hash shares its flow half across all i; mix it
	// once outside the loop.
	hf := xhash.Mix64(f ^ s.preRegSeed)
	var virt hll.Sum
	for i := 0; i < p.VirtualRegisters; i++ {
		reg := s.pDiv.Mod(xhash.Mix64(hf ^ uint64(i)))
		v := s.regs[reg]
		for _, o := range others {
			v = max(v, o.regs[reg])
		}
		virt = virt.Add(v)
	}
	sv := float64(p.VirtualRegisters)
	m := float64(p.PhysicalRegisters)
	// n_f ≈ s/(1 - s/m) * (raw(virtual)/s - raw(whole)/m), the vHLL
	// estimator rearranged; raw() is the plain HLL estimate.
	nv := virt.Estimate(p.VirtualRegisters)
	nt := hll.EstimateUnion(s.regs, others, func(o *Sketch) []uint8 { return o.regs })
	est := sv / (1 - sv/m) * (nv/sv - nt/m)
	if math.IsNaN(est) || est < 0 {
		return 0
	}
	return est
}

// MergeMax folds o into s (union semantics across epochs/points).
func (s *Sketch) MergeMax(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("vhll: merge parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	return s.regs.MergeMax(o.regs)
}

// Merge folds o into s under the spread design's merge algebra —
// register-wise max. It is the sketch-algebra name for MergeMax
// (core.Sketch requires one merge spelling across backends).
func (s *Sketch) Merge(o *Sketch) error { return s.MergeMax(o) }

// Reset zeroes the register array.
func (s *Sketch) Reset() {
	s.regs.Reset()
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c, err := New(s.params)
	if err != nil { // parameters were validated at construction
		panic(err)
	}
	copy(c.regs, s.regs)
	return c
}

// MemoryBits returns the footprint under the paper's register model.
func (s *Sketch) MemoryBits() int {
	return s.regs.MemoryBits()
}
