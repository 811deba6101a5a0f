// Package rskt implements rSkt2(HLL) (Wang et al., VLDB 2021), the per-flow
// spread sketch the paper's three-sketch design builds on.
//
// The data structure is a pair of rows D[0], D[1], each an array of w HLL
// estimators of m registers. A packet <f, e> selects estimator column
// H0(f) mod w and register H1(e) mod m, and is recorded into exactly one of
// the two rows chosen by the balanced pair bit g(f, H1(e)). For a query on
// flow f the two rows are reassembled into the flow's "own" virtual
// estimator L_f (which contains all of f's elements plus about half the
// colliding noise) and its complement L̄_f (the other half of the noise
// only); the estimate is V(L_f) - V(L̄_f), cancelling the noise in
// expectation.
//
// All index/bit/geometric decisions depend only on (f, e) and the shared
// seed, never on which sketch instance records the packet. That is what
// makes the register-wise max a true multiset union across epochs and
// measurement points: the same element lands in the same register
// everywhere, so duplicates collapse.
package rskt

import (
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/hll"
	"repro/internal/prefetch"
	"repro/internal/xhash"
)

// Seed offsets for the independent hash functions of the sketch. All
// sketches that must be mergeable (across epochs and points) have to share
// the same base seed.
const (
	seedColumn   = 0x5157 // H0: flow -> estimator column
	seedRegister = 0x9e0f // H1: element -> register index
	seedPairBit  = 0x1d2b // g(f, i)
	seedGeo      = 0x71aa // G(f, e)
)

// The xhash primitives all start by mixing their seed:
// Hash64(x, s) = Mix64(x ^ Mix64(s)). The seed offsets above are package
// constants, so the inner Mix64 of each hash function is precomputed here
// and the record path pays one Mix64 per decision instead of two. The
// results are bit-identical by construction (same expression, hoisted).
var (
	preColumn   = xhash.Mix64(seedColumn)
	preRegister = xhash.Mix64(seedRegister)
	prePairBit  = xhash.Mix64(seedPairBit)
	preGeo      = xhash.Mix64(seedGeo)
)

// Params configures an rSkt2(HLL) sketch.
type Params struct {
	// W is the number of estimator columns per row. Under device
	// diversity, W differs between measurement points (the paper requires
	// power-of-two ratios).
	W int
	// M is the number of HLL registers per estimator. The paper fixes it
	// networkwide (recommended 128).
	M int
	// Seed is the cluster-wide hash seed.
	Seed uint64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.W <= 0 {
		return fmt.Errorf("rskt: W must be positive, got %d", p.W)
	}
	if p.M <= 0 {
		return fmt.Errorf("rskt: M must be positive, got %d", p.M)
	}
	return nil
}

// WidthForMemory returns the number of estimator columns w that fit in
// memBits bits for the given m, under the paper's memory model of
// 2*w*m registers of hll.RegisterBits bits.
func WidthForMemory(memBits, m int) int {
	w := memBits / (2 * m * hll.RegisterBits)
	if w < 1 {
		w = 1
	}
	return w
}

// Sketch is an rSkt2(HLL) instance. Writes (Record, merges, Reset) are not
// safe for concurrent use — the measurement point serializes them — but
// Estimate/EstimateUnion are read-only and safe to call concurrently with
// each other (queries carry their own virtual-estimator buffers; there is
// no shared scratch state).
type Sketch struct {
	params Params
	// rows[u] holds W*M registers: column j occupies [j*M, (j+1)*M).
	rows [2]hll.Regs
	// Derived per-packet constants, set by initDerived wherever params are
	// assigned: the precomputed HashPair seed hash and the multiply-based
	// column/register moduli.
	preSeed    uint64
	wDiv, mDiv xhash.Divisor
	// batchSlots is RecordAll's slot scratch, owned by the sketch like the
	// rest of its mutable state (writes are not safe for concurrent use).
	// Excluded from Clone/CopyFrom/Equal: it carries no sketch state.
	batchSlots []Slot
}

// initDerived recomputes the record-path constants from s.params. Every
// assignment to s.params must be followed by a call to it.
func (s *Sketch) initDerived() {
	s.preSeed = xhash.Mix64(s.params.Seed)
	s.wDiv = xhash.NewDivisor(s.params.W)
	s.mDiv = xhash.NewDivisor(s.params.M)
}

// New creates a zeroed sketch. It panics only on programmer error
// (non-positive dimensions); use Params.Validate to check user input.
func New(p Params) *Sketch {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := &Sketch{params: p}
	for u := range s.rows {
		s.rows[u] = hll.NewRegs(p.W * p.M)
	}
	s.initDerived()
	return s
}

// Params returns the sketch's configuration.
func (s *Sketch) Params() Params { return s.params }

// Row exposes row u's raw registers for joins and wire encoding.
func (s *Sketch) Row(u int) hll.Regs { return s.rows[u] }

// Record inserts packet <f, e> into the sketch.
func (s *Sketch) Record(f, e uint64) {
	s.RecordSlot(s.Slot(f, e))
}

// Slot is a fully resolved per-packet recording decision: which register
// offset of which row receives which geometric value. It is valid for any
// sketch sharing the parameters of the sketch that computed it.
type Slot struct {
	Idx int   // register offset within the row: column*M + register
	Row uint8 // which of the two rows records the packet
	Val uint8 // geometric register value, already clamped
}

// Slot computes the recording decision (j, i, u, v) for packet <f, e> once,
// so callers holding several same-parameter sketches (the serial B/C/C'
// update of the paper's three-sketch design) hash once and apply the slot
// to each. Bit-identical to the decisions Record has always made: the
// expressions below are xhash.Index/PairBit/Geometric/HashPair with the
// seed mixes (preColumn.., preSeed) hoisted and % replaced by Divisor.Mod.
func (s *Sketch) Slot(f, e uint64) Slot {
	fs := f ^ s.params.Seed
	j := s.wDiv.Mod(xhash.Mix64(fs ^ preColumn))
	i := s.mDiv.Mod(xhash.Mix64((e ^ s.params.Seed) ^ preRegister))
	u := xhash.Mix64(xhash.Mix64(fs^prePairBit)^i) & 1
	v := geoValue(xhash.Mix64(xhash.Mix64(xhash.Mix64(f^s.preSeed)^e) ^ preGeo))
	return Slot{Idx: int(j)*s.params.M + int(i), Row: uint8(u), Val: v}
}

// RecordSlot applies a previously computed slot to the sketch. The slot
// must come from a sketch with identical parameters.
func (s *Sketch) RecordSlot(sl Slot) {
	row := s.rows[sl.Row]
	if row[sl.Idx] < sl.Val {
		row[sl.Idx] = sl.Val
	}
}

// RecordAll inserts packets <fs[k], es[k]> in order — bit-identical to
// calling Record per packet (the register max commutes, and the slots are
// the same Slot hashes).
//
// The loop is split into two passes over the batch: the first computes
// every packet's slot (pure hashing) and issues a software prefetch for
// the target register's cache line, the second applies the register
// maxima. With a batch of a few dozen packets the prefetches of packet
// k+1..n overlap the writes of packet k, hiding the random-access latency
// that dominates the single-packet path on sketch sizes past the L2.
func (s *Sketch) RecordAll(fs, es []uint64) {
	if cap(s.batchSlots) < len(fs) {
		s.batchSlots = make([]Slot, len(fs))
	}
	slots := s.batchSlots[:len(fs)]
	for k := range fs {
		sl := s.Slot(fs[k], es[k])
		slots[k] = sl
		prefetch.T0(unsafe.Pointer(&s.rows[sl.Row][sl.Idx]))
	}
	for _, sl := range slots {
		row := s.rows[sl.Row]
		if row[sl.Idx] < sl.Val {
			row[sl.Idx] = sl.Val
		}
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

// estimatorScratchM is the largest M whose two folded register rows fit
// on the caller's stack; the paper's recommended M is 128.
const estimatorScratchM = 256

// Estimate returns the spread estimate for flow f: V(L_f) - V(L̄_f). The
// value can be slightly negative for flows with no or few elements; callers
// that need a count should clamp at zero. Read-only: concurrent Estimate
// calls on a shared sketch are safe (each call assembles the virtual
// estimators into caller-local buffers, not shared scratch).
func (s *Sketch) Estimate(f uint64) float64 {
	return s.EstimateUnion(f, nil)
}

// EstimateUnion returns the spread estimate for flow f over the
// register-wise max of s and others, without mutating anything:
// bit-identical to MergeMax-ing every other sketch into s first and
// calling Estimate. All others must share s's parameters (the point's
// ingest lanes, or a history window's width-1 projections). Read-only
// and safe for concurrent callers.
//
// It is one pass over the flow's registers: the others fold into the
// flow's column of each row by hll.MergeMaxBytes, then the pair bit,
// widened to a byte mask, splits each register pair into L_f and L̄_f
// without a branch, and both harmonic sums accumulate as exact integers
// (hll.Sum).
func (s *Sketch) EstimateUnion(f uint64, others []*Sketch) float64 {
	p := &s.params
	m := p.M
	base := s.column(f) * m
	// g(f, i) for all i shares the flow half of the pair hash; mix it once.
	hf := xhash.Mix64((f ^ p.Seed) ^ prePairBit)

	var stack [2 * estimatorScratchM]uint8
	var r0, r1 []uint8
	if m <= estimatorScratchM {
		r0, r1 = stack[:m], stack[estimatorScratchM:estimatorScratchM+m]
	} else {
		buf := make([]uint8, 2*m)
		r0, r1 = buf[:m], buf[m:]
	}
	copy(r0, s.rows[0][base:])
	copy(r1, s.rows[1][base:])
	for _, o := range others {
		hll.MergeMaxBytes(r0, o.rows[0][base:])
		hll.MergeMaxBytes(r1, o.rows[1][base:])
	}
	r1 = r1[:len(r0)] // hoists r1's bounds check out of the loop
	var lf, lbar hll.Sum
	for i, a := range r0 {
		b := r1[i]
		// L_f takes row g(f, i)'s register: a when the bit is 0, b when 1.
		x := (a ^ b) & -uint8(xhash.Mix64(hf^uint64(i))&1)
		lf, lbar = lf.Add(a^x), lbar.Add(b^x)
	}
	return lf.Estimate(m) - lbar.Estimate(m)
}

// MergeMax folds o into s by register-wise max (the paper's U operator for
// spread, eq. (7)). Sketches must have identical dimensions and seed.
func (s *Sketch) MergeMax(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("rskt: merge parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	for u := 0; u < 2; u++ {
		if err := s.rows[u].MergeMax(o.rows[u]); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds o into s under the spread design's merge algebra —
// register-wise max. It is the sketch-algebra name for MergeMax
// (core.Sketch requires one merge spelling across backends).
func (s *Sketch) Merge(o *Sketch) error { return s.MergeMax(o) }

// Reset zeroes every register.
func (s *Sketch) Reset() {
	s.rows[0].Reset()
	s.rows[1].Reset()
}

// Clone returns a deep copy.
func (s *Sketch) Clone() *Sketch {
	c := New(s.params)
	copy(c.rows[0], s.rows[0])
	copy(c.rows[1], s.rows[1])
	return c
}

// CopyFrom overwrites s's registers with o's. Dimensions must match. This
// is the "copy C' to C" epoch-boundary action.
func (s *Sketch) CopyFrom(o *Sketch) error {
	if s.params != o.params {
		return fmt.Errorf("rskt: copy parameter mismatch: %+v vs %+v", s.params, o.params)
	}
	copy(s.rows[0], o.rows[0])
	copy(s.rows[1], o.rows[1])
	return nil
}

// Equal reports whether the two sketches hold identical state.
func (s *Sketch) Equal(o *Sketch) bool {
	return s.params == o.params && s.rows[0].Equal(o.rows[0]) && s.rows[1].Equal(o.rows[1])
}

// MemoryBits returns the footprint under the paper's model (2*w*m registers
// of hll.RegisterBits bits).
func (s *Sketch) MemoryBits() int {
	return s.rows[0].MemoryBits() + s.rows[1].MemoryBits()
}

// HeapBytes returns the bytes the sketch's registers hold in memory: one
// per register.
func (s *Sketch) HeapBytes() int { return len(s.rows[0]) + len(s.rows[1]) }

// ExpandTo column-wise replicates the sketch to wBig estimator columns
// (eq. (9)): expanded[u][i][j] = s[u][i mod w][j]. wBig must be a multiple
// of the current width (the paper requires power-of-two ratios).
func (s *Sketch) ExpandTo(wBig int) (*Sketch, error) {
	w := s.params.W
	if wBig%w != 0 {
		return nil, fmt.Errorf("rskt: expand target %d not a multiple of width %d", wBig, w)
	}
	q := s.params
	q.W = wBig
	out := New(q)
	m := s.params.M
	for u := 0; u < 2; u++ {
		for col := 0; col < wBig; col++ {
			src := (col % w) * m
			copy(out.rows[u][col*m:(col+1)*m], s.rows[u][src:src+m])
		}
	}
	return out, nil
}

// CompressTo folds the sketch down to wSmall estimator columns by taking
// the register-wise max over the folded columns (Section IV-C). wSmall must
// divide the current width.
func (s *Sketch) CompressTo(wSmall int) (*Sketch, error) {
	w := s.params.W
	if w%wSmall != 0 {
		return nil, fmt.Errorf("rskt: compress target %d does not divide width %d", wSmall, w)
	}
	q := s.params
	q.W = wSmall
	out := New(q)
	m := s.params.M
	for u := 0; u < 2; u++ {
		for col := 0; col < w; col++ {
			dst := (col % wSmall) * m
			src := col * m
			hll.MergeMaxBytes(out.rows[u][dst:dst+m], s.rows[u][src:src+m])
		}
	}
	return out, nil
}

// Width returns the estimator-column count (the paper's w), satisfying
// the core.SpreadSketch contract.
func (s *Sketch) Width() int { return s.params.W }

// Compatible reports whether two sketches can be joined after width
// alignment: same register count per estimator and same hash seed.
func (s *Sketch) Compatible(o *Sketch) bool {
	return o != nil && s.params.M == o.params.M && s.params.Seed == o.params.Seed
}
