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
// large-range correction is required. The harmonic sum is taken as an
// exact integer (Sum): each register adds 2^(31−v), and one multiply by
// 2^−31 gives the float sum. Below 2^22 registers every partial float sum
// of the terms 2^−v is a multiple of 2^−31 below 2^22, which 53 bits hold
// exactly, so the estimate is bit-identical to the float loop.
package hll

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// Sum is a running harmonic sum of HLL registers, held exactly as an
// integer: register value v adds 2^(31−v), its term 2^−v scaled by 2^31,
// and the zero registers are counted beside it. Every estimator makes one
// pass over its registers into a Sum and ends in one Estimate.
//
// The estimate is bit-identical to summing the float terms 2^−v in
// register order. Each partial float sum over fewer than 2^22 registers
// is a multiple of 2^−31 below 2^22, so it fits a float64's 53-bit
// significand: every float add is exact and equals the integer sum times
// 2^−31. At 2^22 registers or more the integer sum gives the correctly
// rounded value, which the float chain may miss by an ulp; it overflows
// only past 2^33 registers.
type Sum struct {
	scaled uint64
	zeros  int
}

// scaledTerm[v] = 2^(31−v): a load is cheaper than a shift by a variable
// count on the query's hot loop.
var scaledTerm = func() (t [MaxRegisterValue + 1]uint64) {
	for v := range t {
		t[v] = 1 << (MaxRegisterValue - v)
	}
	return t
}()

// Add returns h with register value v added. Only v's low five bits
// count, as registers never exceed MaxRegisterValue. The term's bit 31 is
// set exactly when v is zero, which counts the zero without a branch.
func (h Sum) Add(v uint8) Sum {
	t := scaledTerm[v&MaxRegisterValue]
	return Sum{h.scaled + t, h.zeros + int(t>>MaxRegisterValue)}
}

// addAll returns h with every register of regs added, eight registers a
// step: their terms summed as a tree, their zeros counted by a byte-wise
// test (a masked byte plus 0x7F carries into its high bit exactly when it
// is nonzero, and never into the next byte).
func (h Sum) addAll(regs []uint8) Sum {
	const low5, high = 0x1F1F1F1F1F1F1F1F, 0x8080808080808080
	i := 0
	for ; i+8 <= len(regs); i += 8 {
		w := binary.LittleEndian.Uint64(regs[i:]) & low5
		h.scaled += scaledTerm[w&31] + scaledTerm[w>>8&31] + scaledTerm[w>>16&31] + scaledTerm[w>>24&31] +
			scaledTerm[w>>32&31] + scaledTerm[w>>40&31] + scaledTerm[w>>48&31] + scaledTerm[w>>56&31]
		h.zeros += 8 - bits.OnesCount64((w+^uint64(high))&high)
	}
	for _, v := range regs[i:] {
		h = h.Add(v)
	}
	return h
}

// Estimate returns the bias-corrected estimate, with the linear-counting
// small-range correction, of an estimator of m registers whose terms h
// holds; 0 for m = 0.
func (h Sum) Estimate(m int) float64 {
	if m == 0 {
		return 0
	}
	fm := float64(m)
	e := alpha(m) * fm * fm / (float64(h.scaled) * 0x1p-31)
	if e <= 2.5*fm && h.zeros > 0 {
		// Small-range correction: linear counting.
		return fm * math.Log(fm/float64(h.zeros))
	}
	return e
}

// Estimate returns the HLL cardinality estimate over the register slice.
// The slice is typically one logical estimator of m registers, but any
// length works. Read-only and safe for concurrent callers.
func Estimate(regs []uint8) float64 {
	return Sum{}.addAll(regs).Estimate(len(regs))
}

// unionChunk is how many registers EstimateUnion folds at a time.
const unionChunk = 256

// EstimateUnion returns the HLL estimate over the element-wise max of regs
// and row(o) for every o in others (each at least len(regs) long), without
// materializing the union: it folds unionChunk registers at a time into a
// stack buffer with MergeMaxBytes. Read-only and safe for concurrent
// callers.
func EstimateUnion[T any](regs []uint8, others []T, row func(T) []uint8) float64 {
	var buf [unionChunk]uint8
	var h Sum
	for lo := 0; lo < len(regs); lo += unionChunk {
		c := buf[:copy(buf[:], regs[lo:])]
		for _, o := range others {
			MergeMaxBytes(c, row(o)[lo:])
		}
		h = h.addAll(c)
	}
	return h.Estimate(len(regs))
}

// StandardError returns the theoretical relative standard error of an HLL
// estimator with m registers (~1.04/sqrt(m)).
func StandardError(m int) float64 {
	return 1.04 / math.Sqrt(float64(m))
}
