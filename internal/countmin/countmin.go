// Package countmin implements the CountMin sketch (Cormode &
// Muthukrishnan), the per-flow size sketch the paper's two-sketch design
// builds on.
//
// The structure is d rows of w counters. A packet of flow f increments one
// counter per row (chosen by d independent hash functions); a query returns
// the minimum of f's d counters, an estimate with one-sided (positive)
// error.
//
// Beyond the classical operations, this implementation provides the
// counter-wise algebra the paper's measurement center needs: addition
// (the U operator for size, eq. (12)), subtraction (epoch recovery from
// cumulative uploads, Section V-B), and the expand/compress column
// operations of the nonuniform spatial join (Section V-C).
//
// A counter is a 32-bit two's-complement integer, the width the paper's
// memory accounting charges (CounterBits), so a sketch holds exactly its
// memory label. Every counter operation is exact modulo 2^32: each value
// in [-2^31, 2^31) reads as itself, so a counter counts up to 2^31 - 1
// packets per window, and the center's recovery by subtraction stays
// exact across a wrap of the cumulative counters it subtracts, as long as
// one epoch adds fewer than 2^31 packets to a counter.
package countmin

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/prefetch"
	"repro/internal/xhash"
)

// CounterBits is the width the paper's memory accounting assumes for one
// counter.
const CounterBits = 32

// DefaultDepth is the default number of rows. The paper does not pin d for
// its own design; 4 is the common CountMin choice.
const DefaultDepth = 4

// Params configures a CountMin sketch.
type Params struct {
	// D is the number of rows.
	D int
	// W is the number of counters per row. Under device diversity, W
	// differs between points with power-of-two ratios.
	W int
	// Seed is the cluster-wide hash seed. All sketches that are joined by
	// the center must share it.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.D <= 0 {
		return fmt.Errorf("countmin: D must be positive, got %d", p.D)
	}
	if p.W <= 0 {
		return fmt.Errorf("countmin: W must be positive, got %d", p.W)
	}
	return nil
}

// WidthForMemory returns the number of counters per row that fit in memBits
// bits with d rows of CounterBits-bit counters.
func WidthForMemory(memBits, d int) int {
	w := memBits / (d * CounterBits)
	if w < 1 {
		w = 1
	}
	return w
}

// Sketch is a CountMin instance. Not safe for concurrent use.
type Sketch struct {
	params Params
	// rows[i] has W 32-bit counters, added and subtracted modulo 2^32.
	// Signed counters: the center's recovery subtracts sketches, so a
	// hostile or inconsistent upload can leave a negative counter;
	// clamping happens at query time.
	rows [][]int32
	// Derived per-packet constants, set by initDerived wherever params are
	// assigned: the precomputed per-row hash seeds (Hash64's inner
	// Mix64(seed) for row seeds 1..D) and the multiply-based width modulus.
	rowPre []uint64
	wDiv   xhash.Divisor
	// batchIdx is RecordAll's slot scratch (D indices per packet), owned by
	// the sketch like the rest of its mutable state (writes are not safe for
	// concurrent use). Excluded from Clone/CopyFrom/Equal: it carries no
	// sketch state between calls.
	batchIdx []int32
}

// initDerived recomputes the record-path constants from s.params. Every
// assignment to s.params must be followed by a call to it.
func (s *Sketch) initDerived() {
	if cap(s.rowPre) < s.params.D {
		s.rowPre = make([]uint64, s.params.D)
	}
	s.rowPre = s.rowPre[:s.params.D]
	for i := range s.rowPre {
		s.rowPre[i] = xhash.Mix64(uint64(i) + 1)
	}
	s.wDiv = xhash.NewDivisor(s.params.W)
}

// New creates a zeroed sketch. Panics only on programmer error; use
// Params.Validate for user input.
func New(p Params) *Sketch {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rows := make([][]int32, p.D)
	for i := range rows {
		rows[i] = make([]int32, p.W)
	}
	s := &Sketch{params: p, rows: rows}
	s.initDerived()
	return s
}

// Params returns the sketch's configuration.
func (s *Sketch) Params() Params { return s.params }

// Row exposes row i's raw counters for joins and wire encoding.
func (s *Sketch) Row(i int) []int32 { return s.rows[i] }

// Record adds one occurrence of flow f. The element argument exists for
// the sketch algebra's shared signature (core.Sketch); per-flow size
// ignores which element arrived.
func (s *Sketch) Record(f, _ uint64) { s.Add(f, 1) }

// Add adds delta occurrences of flow f, modulo 2^32 like every counter
// operation. The per-row indices are xhash.Index(f^Seed, i+1, W) with the
// row-seed mix and the division precomputed (bit-identical).
func (s *Sketch) Add(f uint64, delta int64) {
	fs := f ^ s.params.Seed
	d := int32(delta)
	for i, pre := range s.rowPre {
		j := s.wDiv.Mod(xhash.Mix64(fs ^ pre))
		s.rows[i][j] += d
	}
}

// Slots fills idx with flow f's per-row counter indices (one per row,
// len(idx) must be D), hashing once. The indices are valid for any sketch
// sharing s's parameters, so the two-sketch record path of the size design
// hashes once and applies the same slots to each sketch via AddSlots.
func (s *Sketch) Slots(f uint64, idx []int) {
	fs := f ^ s.params.Seed
	for i, pre := range s.rowPre {
		idx[i] = int(s.wDiv.Mod(xhash.Mix64(fs ^ pre)))
	}
}

// AddSlots adds delta at a previously computed index set (one counter per
// row, as filled by Slots on a same-parameter sketch), modulo 2^32.
func (s *Sketch) AddSlots(idx []int, delta int64) {
	d := int32(delta)
	for i, row := range s.rows {
		row[idx[i]] += d
	}
}

// RecordAll adds one occurrence of every flow in fs, in order —
// bit-identical to calling Record per flow (counter addition commutes, and
// the indices are the same Slots hashes). The element stream is accepted
// and ignored so the per-core ingest pipeline can drive any backend
// through one signature.
//
// The loop is split into two passes over the batch: the first computes
// every packet's D counter indices (pure hashing) and issues a software
// prefetch for each target counter, the second applies the increments.
// With a batch of a few dozen packets the prefetches of packet k+1..n
// overlap the writes of packet k, hiding the random-access latency that
// dominates the single-packet path on sketch sizes past the L2.
func (s *Sketch) RecordAll(fs []uint64, _ []uint64) {
	d := s.params.D
	if need := len(fs) * d; cap(s.batchIdx) < need {
		s.batchIdx = make([]int32, need)
	}
	idx := s.batchIdx[:len(fs)*d]
	k := 0
	for _, f := range fs {
		fj := f ^ s.params.Seed
		for i, pre := range s.rowPre {
			j := s.wDiv.Mod(xhash.Mix64(fj ^ pre))
			idx[k] = int32(j)
			prefetch.T0(unsafe.Pointer(&s.rows[i][j]))
			k++
		}
	}
	k = 0
	for range fs {
		for i := range s.rows {
			s.rows[i][idx[k]]++
			k++
		}
	}
}

// Estimate returns the size estimate for flow f: the minimum counter over
// the d rows, clamped at zero.
func (s *Sketch) Estimate(f uint64) int64 {
	fs := f ^ s.params.Seed
	est := int32(math.MaxInt32)
	for i, pre := range s.rowPre {
		j := s.wDiv.Mod(xhash.Mix64(fs ^ pre))
		if c := s.rows[i][j]; c < est {
			est = c
		}
	}
	return max(int64(est), 0)
}

// EstimateSummed returns the size estimate for flow f over the
// counter-wise sum of s and extras, without mutating anything:
// bit-identical to AddSketch-ing every extra into s first and calling
// Estimate: the sum is taken modulo 2^32 too. All extras must share s's
// parameters (the point's ingest lanes do by construction; behaviour is
// undefined otherwise).
func (s *Sketch) EstimateSummed(f uint64, extras []*Sketch) int64 {
	fs := f ^ s.params.Seed
	est := int32(math.MaxInt32)
	for i, pre := range s.rowPre {
		j := s.wDiv.Mod(xhash.Mix64(fs ^ pre))
		c := s.rows[i][j]
		for _, o := range extras {
			c += o.rows[i][j]
		}
		if c < est {
			est = c
		}
	}
	return max(int64(est), 0)
}

// EstimateUnion returns the size estimate for flow f over the counter-wise
// sum of s and others, as the sketch algebra's float-valued estimator.
// An estimate is below 2^31, so the conversion is exact; EstimateSummed
// is the integer-typed form.
func (s *Sketch) EstimateUnion(f uint64, others []*Sketch) float64 {
	return float64(s.EstimateSummed(f, others))
}

// Merge folds o into s under the size design's merge algebra: counter-wise
// addition (the U operator, eq. (12)).
func (s *Sketch) Merge(o *Sketch) error { return s.AddSketch(o) }

// AddSketch folds o into s by counter-wise addition (the U operator for
// size). Dimensions and seed must match.
func (s *Sketch) AddSketch(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("countmin: add parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	for i := range s.rows {
		addRows(s.rows[i], o.rows[i])
	}
	return nil
}

// SubSketch subtracts o from s counter-wise. The center uses it to recover
// a single epoch's measurement from cumulative uploads.
func (s *Sketch) SubSketch(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("countmin: sub parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	for i := range s.rows {
		subRows(s.rows[i], o.rows[i])
	}
	return nil
}

// addRows/subRows are the word-wise inner loops of the sketch algebra,
// unrolled four counters per step (with a scalar tail) so the epoch
// boundary's merge/recover pass streams rows instead of bounds-checking
// every element. Both wrap modulo 2^32.
func addRows(dst, src []int32) {
	src = src[:len(dst)] // equal lengths by params; helps BCE
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] += src[j]
		dst[j+1] += src[j+1]
		dst[j+2] += src[j+2]
		dst[j+3] += src[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] += src[j]
	}
}

func subRows(dst, src []int32) {
	src = src[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		dst[j] -= src[j]
		dst[j+1] -= src[j+1]
		dst[j+2] -= src[j+2]
		dst[j+3] -= src[j+3]
	}
	for ; j < len(dst); j++ {
		dst[j] -= src[j]
	}
}

// Reset zeroes every counter.
func (s *Sketch) Reset() {
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(s.params)
	for i := range s.rows {
		copy(c.rows[i], s.rows[i])
	}
	return c
}

// CopyFrom overwrites s's counters with o's (the "copy C' to C" action).
func (s *Sketch) CopyFrom(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("countmin: copy parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	for i := range s.rows {
		copy(s.rows[i], o.rows[i])
	}
	return nil
}

// Equal reports whether the two sketches hold identical state.
func (s *Sketch) Equal(o *Sketch) bool {
	if s.params != o.params {
		return false
	}
	for i := range s.rows {
		for j, v := range s.rows[i] {
			if o.rows[i][j] != v {
				return false
			}
		}
	}
	return true
}

// IsZero reports whether every counter is zero.
func (s *Sketch) IsZero() bool {
	for i := range s.rows {
		for _, v := range s.rows[i] {
			if v != 0 {
				return false
			}
		}
	}
	return true
}

// MemoryBits returns the footprint under the paper's model (d*w counters of
// CounterBits bits).
func (s *Sketch) MemoryBits() int {
	return s.params.D * s.params.W * CounterBits
}

// HeapBytes returns the bytes the sketch's counters hold in memory: four
// per counter, MemoryBits / 8.
func (s *Sketch) HeapBytes() int { return 4 * s.params.D * s.params.W }

// Width returns the per-row counter count (the dimension that varies under
// device diversity and that ExpandTo/CompressTo align).
func (s *Sketch) Width() int { return s.params.W }

// Compatible reports whether two sketches can be joined after width
// alignment: same depth and same hash seed.
func (s *Sketch) Compatible(o *Sketch) bool {
	return o != nil && s.params.D == o.params.D && s.params.Seed == o.params.Seed
}

// ExpandTo column-wise replicates the sketch to wBig counters per row
// (Section V-C): expanded[i][j] = s[i][j mod w]. wBig must be a multiple of
// the current width.
func (s *Sketch) ExpandTo(wBig int) (*Sketch, error) {
	w := s.params.W
	if wBig%w != 0 {
		return nil, fmt.Errorf("countmin: expand target %d not a multiple of width %d", wBig, w)
	}
	q := s.params
	q.W = wBig
	out := New(q)
	for i, row := range s.rows {
		for j := 0; j < wBig; j += w {
			copy(out.rows[i][j:], row)
		}
	}
	return out, nil
}

// CompressTo folds the sketch down to wSmall counters per row by taking the
// max over the folded columns (Section V-C). wSmall must divide the current
// width.
func (s *Sketch) CompressTo(wSmall int) (*Sketch, error) {
	w := s.params.W
	if w%wSmall != 0 {
		return nil, fmt.Errorf("countmin: compress target %d does not divide width %d", wSmall, w)
	}
	q := s.params
	q.W = wSmall
	out := New(q)
	for i, row := range s.rows {
		dst := out.rows[i]
		// Fold block by block; dst starts at zero, as the max always has.
		for j := 0; j < w; j += wSmall {
			src := row[j:][:len(dst)]
			for k, v := range dst {
				dst[k] = max(v, src[k])
			}
		}
	}
	return out, nil
}
