package core

import (
	"repro/internal/rskt"
)

// SpreadSketch is the contract the three-sketch design needs from its
// per-flow spread sketch: the generic sketch algebra plus the
// spread-flavored estimator surface. rSkt2 (with any of its estimators)
// satisfies it, and so does any union-mergeable sketch whose columns can
// be expanded and compressed with power-of-two width ratios (e.g.
// internal/vhll). The paper builds on rSkt2(HLL) and notes the design "can
// be easily modified to work with other sketches" (Section IV-B); this
// interface is that modification point.
type SpreadSketch[S any] interface {
	Sketch[S]
	// Estimate answers a flow-spread query.
	Estimate(f uint64) float64
	// MergeMax folds another sketch in with union semantics — the sketch
	// algebra's Merge under its spread-design name.
	MergeMax(S) error
}

// SpreadPoint is one measurement point running the three-sketch design for
// flow spread, generic over the epoch sketch: the generic epoch engine
// instantiated with delta uploads and the non-additive (register-max)
// merge discipline. Safe for concurrent use (see Point).
type SpreadPoint[S SpreadSketch[S]] struct {
	*Point[S]
	params rskt.Params
}

// NewSpreadPointOf creates a measurement point whose sketches are built by
// fresh (called twice plus once per ingest lane up front, and once per
// epoch for the new C' unless uploads come back through Recycle).
func NewSpreadPointOf[S SpreadSketch[S]](id int, fresh func() S) (*SpreadPoint[S], error) {
	return newSpreadPointOf(id, fresh, 0)
}

// newSpreadPointOf is NewSpreadPointOf with an explicit
// EngineConfig.Shards.
func newSpreadPointOf[S SpreadSketch[S]](id int, fresh func() S, shards int) (*SpreadPoint[S], error) {
	cfg := SpreadEngine[S]()
	cfg.Shards = shards
	pt, err := NewPoint(id, fresh, cfg)
	if err != nil {
		return nil, err
	}
	return &SpreadPoint[S]{Point: pt}, nil
}

// SpreadEngine is the spread design's engine discipline: delta uploads
// under the non-additive (register-max) merge. Every spread point, center
// and relay is built with it.
func SpreadEngine[S SpreadSketch[S]]() EngineConfig[S] {
	return EngineConfig[S]{Design: "spread", Mode: ModeDelta}
}

// NewSpreadPoint creates the paper's rSkt2(HLL)-backed measurement point.
// Points of one cluster must share M and Seed; W may differ (device
// diversity).
func NewSpreadPoint(id int, p rskt.Params) (*SpreadPoint[*rskt.Sketch], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pt, err := NewSpreadPointOf(id, func() *rskt.Sketch { return rskt.New(p) })
	if err != nil {
		return nil, err
	}
	pt.params = p
	return pt, nil
}

// Params returns the parameters NewSpreadPoint was given (the zero value
// for a point built by NewSpreadPointOf; generic callers use
// NewSketch().Width()/Compatible()).
func (p *SpreadPoint[S]) Params() rskt.Params { return p.params }
