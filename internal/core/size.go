package core

import (
	"fmt"

	"repro/internal/countmin"
)

// The flow-size design as a thin instantiation of the generic epoch
// engine: CountMin sketches under the additive (counter-add) merge
// discipline, with the paper's cumulative-upload mode or the ablation's
// delta mode. SizePoint and SizeCenter keep the historical int64-valued
// query surface and parameter-keyed construction; the epoch choreography,
// coverage accounting and durable state live in Point/Center.

// SizeMode selects how a size measurement point uploads its per-epoch
// data. It is the generic engine's Mode under its historical name.
type SizeMode = Mode

const (
	// SizeModeCumulative is the paper's two-sketch design: the point
	// uploads its cumulative C sketch and the center recovers each epoch's
	// delta by subtraction (Section V-B). Two sketches of memory.
	SizeModeCumulative = ModeCumulative
	// SizeModeDelta is the ablation variant: the point keeps a third B
	// sketch like the spread design and uploads the per-epoch delta
	// directly. Same information at the center, three sketches of memory.
	SizeModeDelta = ModeDelta
)

// subCountMin is the size design's inversion operator (dst -= src), needed
// by the center's cumulative recovery.
func subCountMin(dst, src *countmin.Sketch) error { return dst.SubSketch(src) }

// SizePoint is one measurement point running the flow-size design. Safe
// for concurrent use (see Point).
type SizePoint struct {
	*Point[*countmin.Sketch]
	params countmin.Params
}

// NewSizePoint creates a measurement point. Points of one cluster must
// share D and Seed; W may differ (device diversity).
func NewSizePoint(id int, p countmin.Params, mode SizeMode) (*SizePoint, error) {
	return newSizePoint(id, p, mode, 0)
}

// newSizePoint is NewSizePoint with an explicit EngineConfig.Shards.
func newSizePoint(id int, p countmin.Params, mode SizeMode, shards int) (*SizePoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if mode != SizeModeCumulative && mode != SizeModeDelta {
		return nil, fmt.Errorf("core: invalid size mode %d", mode)
	}
	pt, err := NewPoint[*countmin.Sketch](id, func() *countmin.Sketch { return countmin.New(p) },
		EngineConfig[*countmin.Sketch]{
			Design:   "size",
			Mode:     mode,
			Additive: true,
			Shards:   shards,
		})
	if err != nil {
		return nil, err
	}
	return &SizePoint{Point: pt, params: p}, nil
}

// Params returns the point's sketch parameters.
func (p *SizePoint) Params() countmin.Params { return p.params }

// Record inserts one packet of flow f.
func (p *SizePoint) Record(f uint64) { p.Point.Record(f, 0) }

// RecordBatch inserts one packet per flow in fs under one lock
// acquisition.
func (p *SizePoint) RecordBatch(fs []uint64) { p.Point.RecordBatchFlows(fs) }

// Query answers the approximate real-time networkwide T-query for flow f
// from the local C sketch plus the not-yet-folded ingest lanes. CountMin
// counters are exact integers well below 2^53, so the generic engine's
// float-valued fold converts back to int64 losslessly.
func (p *SizePoint) Query(f uint64) int64 { return int64(p.Point.Query(f)) }

// QueryWithCoverage answers Query(f) together with the coverage of the
// window the answer was computed from, read atomically so the pair is
// consistent across a concurrent epoch boundary.
func (p *SizePoint) QueryWithCoverage(f uint64) (int64, Coverage) {
	est, cov := p.Point.QueryWithCoverage(f)
	return int64(est), cov
}

// SizeCenter is the measurement center for the flow-size design. In
// cumulative mode it recovers per-epoch deltas from the cumulative
// uploads; in delta mode uploads already are deltas.
type SizeCenter struct {
	*Center[*countmin.Sketch]
}

// NewSizeCenter creates a center for a cluster whose points use the given
// CountMin parameters (keyed by point id). All parameters must share D and
// Seed; the maximum width must be a multiple of every width.
func NewSizeCenter(windowN int, points map[int]countmin.Params, mode SizeMode) (*SizeCenter, error) {
	protos := make(map[int]*countmin.Sketch, len(points))
	for id, p := range points {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		protos[id] = countmin.New(p)
	}
	ctr, err := NewCenter(windowN, protos, EngineConfig[*countmin.Sketch]{
		Design:   "size",
		Mode:     mode,
		Additive: true,
		Sub:      subCountMin,
	})
	if err != nil {
		return nil, err
	}
	return &SizeCenter{Center: ctr}, nil
}

// Delta returns the recovered measurement of one epoch at one point (a
// clone), or nil if unknown. Exposed for tests and diagnostics.
func (c *SizeCenter) Delta(point int, epoch int64) *countmin.Sketch {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.uploads[point][epoch]
	if !ok {
		return nil
	}
	return d.Clone()
}
