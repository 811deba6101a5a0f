package core

import "fmt"

// The sketch algebra: the complete contract the generic epoch engine
// (Point, Center) needs from a per-flow sketch. The paper notes both of
// its designs "can be easily modified to work with other sketches"
// (Section IV-B); this interface is that modification point, shared by the
// three-sketch spread design (register-max merge) and the two-sketch size
// design (counter-add merge). A backend supplies the operations; the
// engine supplies the epoch choreography, the ST join, the coverage
// accounting and the durable state — exactly once.
//
// Implementations are pointer-shaped: the zero value of S is nil, which
// the engine uses as the "no sketch" signal (IsNil).
type Sketch[S any] interface {
	// Record inserts packet <f, e>. Designs that only need the flow key
	// (size) ignore e.
	Record(f, e uint64)
	// EstimateUnion answers the flow-f estimate over the merge of the
	// sketch and others (as if every other sketch had been Merge-d in
	// first) without mutating anything. others share the sketch's shape;
	// an empty slice answers from the sketch alone. Query uses it to
	// fold not-yet-merged ingest lanes into its answers.
	EstimateUnion(f uint64, others []S) float64
	// Merge folds another sketch in under the design's merge algebra:
	// register-wise max for spread sketches, counter-wise addition for
	// size sketches.
	Merge(S) error
	// CopyFrom overwrites this sketch's state with another's.
	CopyFrom(S) error
	// Reset zeroes the sketch.
	Reset()
	// Clone returns a deep copy.
	Clone() S
	// ExpandTo/CompressTo implement the expand-and-compress nonuniform
	// join (Sections IV-C, V-C); widths must have integral ratios.
	ExpandTo(w int) (S, error)
	CompressTo(w int) (S, error)
	// Width is the sketch's column count (the paper's w — the dimension
	// that varies under device diversity).
	Width() int
	// Compatible reports whether two sketches may be joined after width
	// alignment (same estimator shape and hash seed).
	Compatible(S) bool
	// MarshalBinaryCompact/UnmarshalBinary are the sketch's one binary
	// encoding, used by the wire protocol, the epoch log and the
	// checkpoint export/import paths. UnmarshalBinary on a sketch with
	// dimensions (any but the backend's zero value) rejects an encoding
	// of other dimensions before allocating, so decoding into a zero
	// sketch of the expected shape bounds what a payload can allocate.
	MarshalBinaryCompact() ([]byte, error)
	UnmarshalBinary([]byte) error
	// Project returns the sketch's projection for flow f: a sketch of the
	// same kind on which EstimateUnion(f, ...) over other projections of
	// f answers bit for bit what it answers over the sketches they came
	// from. rSkt2 and CountMin read W only to find the flow's column, so
	// their projection is width 1: each row cut down to f's column. vHLL's
	// estimator reads every register, so its projection is the sketch
	// itself. The replay answers a stored window from its epochs'
	// projections.
	Project(f uint64) S
	// HeapBytes is the bytes the sketch's state holds in memory; the
	// replay cache charges a decoded partial by it.
	HeapBytes() int
	// MemoryBits is the sketch's footprint under the paper's memory model
	// (5-bit registers, 32-bit counters).
	MemoryBits() int
}

// Mode selects how a measurement point uploads its per-epoch data.
type Mode int

const (
	// ModeCumulative is the paper's two-sketch design: the point uploads
	// its cumulative C sketch and the center recovers each epoch's delta
	// by subtraction (Section V-B). Two sketches of memory. Requires an
	// invertible (additive) merge.
	ModeCumulative Mode = iota + 1
	// ModeDelta keeps a third B sketch and uploads the per-epoch delta
	// directly: the three-sketch spread design, and the size design's
	// ablation variant.
	ModeDelta
)

// EngineConfig fixes a design's discipline when instantiating the generic
// epoch engine: how the point uploads (Mode), whether the merge algebra is
// additive, and how errors name the design.
type EngineConfig[S any] struct {
	// Design names the instantiation in error messages ("spread", "size").
	Design string
	// Mode is the upload discipline. ModeCumulative requires Additive.
	Mode Mode
	// Additive marks a counter-style algebra (size): merging the same
	// sketch twice double-counts. It drives everything that differs
	// between the two designs beyond the merge operator itself — upload
	// metadata carries push lineage (UploadMeta flags with the one-epoch
	// AggAppliedPrev memory), the center enforces strict upload
	// sequencing, clones on receive, and records every sent push so the
	// cumulative inversion (and an idempotent re-push) stays exact. A
	// max-style algebra (spread) needs none of that: merges are
	// idempotent, uploads are independent, and late uploads fill window
	// holes.
	Additive bool
	// Sub undoes a Merge (dst -= src), required in ModeCumulative for the
	// center's Section V-B recovery; unused otherwise.
	Sub func(dst, src S) error
	// Shards is the number of shared ingest lanes Record and RecordBatch
	// stripe over (0 = GOMAXPROCS, capped at 8).
	Shards int
}

func (c EngineConfig[S]) validate() error {
	if c.Mode != ModeCumulative && c.Mode != ModeDelta {
		return fmt.Errorf("core: invalid mode %d", c.Mode)
	}
	if c.Mode == ModeCumulative && !c.Additive {
		return fmt.Errorf("core: %s: cumulative uploads need an additive merge", c.Design)
	}
	return nil
}

// sameShape is the one shape check every stored or merged sketch passes:
// it joins proto's cluster (Compatible) at proto's width.
func sameShape[S Sketch[S]](proto, sk S) bool {
	return !IsNil(sk) && proto.Compatible(sk) && proto.Width() == sk.Width()
}

// IsNil reports whether a sketch value is absent: sketch implementations
// are pointer types, and a nil pointer is the "no aggregate yet" signal
// during cluster start-up. Not on the hot path (at most a few calls per
// epoch).
func IsNil[S any](s S) bool {
	var zero S
	return any(s) == any(zero)
}

// mustMerge folds src into dst; lanes share the point's sketch shape by
// construction, so a mismatch is a programmer error.
func mustMerge[S Sketch[S]](dst, src S) {
	if err := dst.Merge(src); err != nil {
		panic("core: lane fold: " + err.Error())
	}
}

// mustCopy overwrites dst with src, under the same shape guarantee as
// mustMerge.
func mustCopy[S Sketch[S]](dst, src S) {
	if err := dst.CopyFrom(src); err != nil {
		panic("core: lane fold: " + err.Error())
	}
}
