// Package hll implements the HyperLogLog cardinality estimator used as the
// per-flow single-flow estimator inside rSkt2(HLL) (Flajolet et al. 2007,
// Heule et al. 2013).
//
// The paper's configuration is m HLL registers of r = 5 bits each, so each
// register holds a value in [0, 31]. Regs, one byte per register, is the
// working representation on the record path (fast, still value-clamped to
// 5 bits); MemoryBits accounts for it under the paper's 5-bit model. The
// wire form is the compact encoding (AppendCompact/DecodeCompact), whose
// dense mode carries the true 5-bit packing (PackInto/UnpackInto).
//
// Estimation uses the standard bias-corrected HLL formula with the
// linear-counting small-range correction. With 64-bit hashing no
// large-range correction is required.
package hll

import (
	"bytes"
	"fmt"
	"math"
)

const (
	// RegisterBits is the width of one HLL register in bits (the paper's r).
	RegisterBits = 5
	// MaxRegisterValue is the largest value an r-bit register can hold.
	MaxRegisterValue = 1<<RegisterBits - 1
	// DefaultM is the register count per estimator recommended by the paper
	// (Section IV-C cites m = 128 as the accuracy-preserving constant).
	DefaultM = 128
)

// Regs is a flat array of HLL registers, one byte per register. Values are
// always kept within [0, MaxRegisterValue]. The zero-length Regs is valid
// and empty.
type Regs []uint8

// NewRegs returns a zeroed register array of length n.
func NewRegs(n int) Regs {
	return make(Regs, n)
}

// Observe records geometric value v into register i, keeping the register
// at the maximum value seen.
func (r Regs) Observe(i int, v uint8) {
	if v > MaxRegisterValue {
		v = MaxRegisterValue
	}
	if r[i] < v {
		r[i] = v
	}
}

// MergeMax folds register array o into r by element-wise max. The two
// arrays must have equal length; merging register arrays of different
// widths is the job of the expand-and-compress join in internal/core.
func (r Regs) MergeMax(o Regs) error {
	if len(r) != len(o) {
		return fmt.Errorf("hll: merge length mismatch: %d vs %d", len(r), len(o))
	}
	MergeMaxBytes(r, o)
	return nil
}

// Reset zeroes every register.
func (r Regs) Reset() {
	for i := range r {
		r[i] = 0
	}
}

// Clone returns a deep copy of r.
func (r Regs) Clone() Regs {
	c := make(Regs, len(r))
	copy(c, r)
	return c
}

// Equal reports whether r and o hold identical register values.
func (r Regs) Equal(o Regs) bool {
	return bytes.Equal(r, o)
}

// MemoryBits returns the memory footprint of r under the paper's model of
// RegisterBits bits per register.
func (r Regs) MemoryBits() int {
	return len(r) * RegisterBits
}

// alpha returns the HLL bias-correction constant for m registers.
func alpha(m int) float64 {
	switch {
	case m <= 16:
		return 0.673
	case m <= 32:
		return 0.697
	case m <= 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// exp2Neg[v] = 2^-v for register values, precomputed: the estimate is on
// the query hot path (Table I).
var exp2Neg = func() [MaxRegisterValue + 1]float64 {
	var t [MaxRegisterValue + 1]float64
	for v := range t {
		t[v] = math.Exp2(-float64(v))
	}
	return t
}()

// Estimate returns the HLL cardinality estimate over the register slice.
// The slice is typically one logical estimator of m registers, but any
// length >= 1 works (rSkt2 assembles virtual estimators from two rows).
// Read-only and safe for concurrent callers.
func Estimate(regs []uint8) float64 {
	m := len(regs)
	if m == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for _, v := range regs {
		sum += exp2Neg[v&MaxRegisterValue]
		if v == 0 {
			zeros++
		}
	}
	return estimateFrom(m, sum, zeros)
}

// EstimateUnion returns the HLL estimate over the element-wise max of regs
// and every slice in others (all equal length), without materializing the
// union. The spread point uses it to answer queries across
// not-yet-folded ingest lanes.
func EstimateUnion(regs []uint8, others [][]uint8) float64 {
	m := len(regs)
	if m == 0 {
		return 0
	}
	sum := 0.0
	zeros := 0
	for i, v := range regs {
		for _, o := range others {
			if o[i] > v {
				v = o[i]
			}
		}
		sum += exp2Neg[v&MaxRegisterValue]
		if v == 0 {
			zeros++
		}
	}
	return estimateFrom(m, sum, zeros)
}

// estimateFrom finishes the bias-corrected estimate from the accumulated
// harmonic sum and zero-register count.
func estimateFrom(m int, sum float64, zeros int) float64 {
	fm := float64(m)
	e := alpha(m) * fm * fm / sum
	if e <= 2.5*fm && zeros > 0 {
		// Small-range correction: linear counting.
		return fm * math.Log(fm/float64(zeros))
	}
	return e
}

// StandardError returns the theoretical relative standard error of an HLL
// estimator with m registers (~1.04/sqrt(m)).
func StandardError(m int) float64 {
	return 1.04 / math.Sqrt(float64(m))
}
