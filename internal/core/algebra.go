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
	// MemoryBits is the sketch's footprint under the paper's memory model
	// (5-bit registers, 32-bit counters); the replay cache charges by it.
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
	return nil
}

// checkNode validates what a center and a relay share at construction: a
// window of at least 3 epochs, a valid discipline, and per-child sketch
// prototypes that are non-nil and mutually compatible, with the maximum
// width a multiple of every width (power-of-two-ratio widths satisfy
// this). It returns the maximum width.
func checkNode[S Sketch[S]](windowN int, protos map[int]S, cfg EngineConfig[S]) (int, error) {
	if windowN < 3 {
		return 0, fmt.Errorf("core: window n must be >= 3, got %d", windowN)
	}
	if len(protos) == 0 {
		return 0, fmt.Errorf("core: no measurement points")
	}
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	wMax := 0
	var ref S
	for _, p := range protos {
		if IsNil(p) {
			return 0, fmt.Errorf("core: nil sketch prototype")
		}
		wMax, ref = max(wMax, p.Width()), p
	}
	for id, p := range protos {
		if !ref.Compatible(p) {
			return 0, fmt.Errorf("core: the sketch of %d is incompatible with its peers", id)
		}
		if wMax%p.Width() != 0 {
			return 0, fmt.Errorf("core: width %d of %d does not divide max width %d", p.Width(), id, wMax)
		}
	}
	return wMax, nil
}

// cloneOf returns a zero sketch of id's declared shape (its prototype's
// clone); ok is false for an unknown id. Prototypes are fixed at
// construction, so callers need no lock.
func cloneOf[S Sketch[S]](protos map[int]S, id int) (S, bool) {
	proto, ok := protos[id]
	if !ok {
		return proto, false
	}
	return proto.Clone(), true
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
