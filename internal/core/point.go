package core

import (
	"fmt"
	"slices"
	"sync"
)

// The generic measurement point: the single implementation of the
// point-side epoch engine. The paper describes two designs — three-sketch
// spread (Section IV) and two-sketch size (Section V) — whose epoch
// choreography is identical: record locally, upload at the epoch boundary,
// copy C' to C, merge the center's pushes into C'/C. Everything that
// differs is captured by EngineConfig (upload mode, merge additivity) and
// the Sketch algebra; SpreadPoint and SizePoint are thin instantiations.

// Point is one measurement point of the generic epoch engine. It is safe
// for concurrent use: the record path only ever locks an ingest lane
// (lane.go), so recorders do not serialize behind the point mutex while
// aggregates arrive from the center.
type Point[S Sketch[S]] struct {
	mu sync.Mutex // guards epoch and the authoritative sketch set

	id       int
	design   string // names the instantiation in error messages
	mode     Mode
	additive bool
	fresh    func() S
	epoch    int64 // current epoch k (1-based)

	c  S // query target (holds the approximate T-stream); the upload in cumulative mode
	cp S // C': staging for the next epoch
	// b is the per-epoch measurement B (delta mode only). Between
	// boundaries B lives in the lanes, and the boundary builds it in the
	// memory of the C it discards, so b stays nil — except after
	// ImportState, when it holds the restored B, whose records C' already
	// has. The next boundary then folds each lane into B and C'
	// separately: merging such a B into C' whole would count its records
	// twice in an additive design.
	b S

	// spare is an upload handed back by Recycle, already reset: the next
	// boundary takes it as the new C' instead of calling fresh.
	spare S

	// Degradation accounting (see coverage.go and protocol.go).
	// topoPoints/topoN describe the cluster (0 = standalone, coverage
	// always reports full); aggApplied/enhApplied guard against duplicate
	// center pushes within one epoch; covMerged is the point-epoch count of
	// the aggregate staged in C' (it arrives from the wire and from disk,
	// so the boundary reads a count outside [0, expected] as a whole
	// window); covCur is the coverage of the current query target C.
	// aggAppliedPrev (additive designs only) remembers whether the
	// aggregate was merged during the previous epoch: the cumulative
	// upload C_e carries the aggregate applied during e-1, so its
	// UploadMeta needs one epoch of memory.
	topoPoints, topoN int
	aggApplied        bool
	aggAppliedPrev    bool
	enhApplied        bool
	// backfilled guards against duplicate backfill pushes (a center-sent
	// aggregate merged directly into C after a restart; see
	// ApplyBackfillCovAt). Reset at every epoch boundary.
	backfilled bool
	covMerged  int
	covCur     Coverage

	// shared are the lanes Record and RecordBatch stripe over; fixed at
	// construction, so the record path reads the slice without p.mu.
	shared []*lane[S]
	// lanes is every ingest delta the fold points visit: the shared lanes
	// plus one per live Recorder. Guarded by mu.
	lanes []*lane[S]
}

// NewPoint creates a measurement point whose sketches are built by fresh
// (called twice plus once per ingest lane up front, and once per epoch for
// the new C', unless the caller hands uploads back with Recycle), with the
// design discipline fixed by cfg.
func NewPoint[S Sketch[S]](id int, fresh func() S, cfg EngineConfig[S]) (*Point[S], error) {
	if fresh == nil {
		return nil, fmt.Errorf("core: nil sketch constructor for point %d", id)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Point[S]{
		id:       id,
		design:   cfg.Design,
		mode:     cfg.Mode,
		additive: cfg.Additive,
		fresh:    fresh,
		epoch:    1,
		c:        fresh(),
		cp:       fresh(),
		shared:   make([]*lane[S], normShards(cfg.Shards)),
	}
	for i := range p.shared {
		p.shared[i] = &lane[S]{d: fresh()}
	}
	p.lanes = slices.Clone(p.shared)
	return p, nil
}

// ID returns the point's identifier.
func (p *Point[S]) ID() int { return p.id }

// NewSketch returns a zero sketch of the point's shape: the target a
// pushed or restored payload decodes into, so one naming other dimensions
// is rejected before it allocates.
func (p *Point[S]) NewSketch() S { return p.fresh() }

// Mode returns the upload mode.
func (p *Point[S]) Mode() Mode { return p.mode }

// Epoch returns the current (1-based) epoch index.
func (p *Point[S]) Epoch() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// SetTopology tells the point how large its cluster is (point count and
// window n), which is what Coverage measures queries against. A standalone
// point (the default) expects nothing and always reports full coverage.
func (p *Point[S]) SetTopology(points, windowN int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topoPoints, p.topoN = points, windowN
}

// Coverage returns the eq. (1)/(2) window coverage of the current query
// target (see Coverage).
func (p *Point[S]) Coverage() Coverage {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.covCur
}

// Record inserts packet <f, e> (stage 1, local online recording) into the
// flow's shared lane.
func (p *Point[S]) Record(f, e uint64) {
	p.shared[shardOf(f, len(p.shared))].record(f, e)
}

// RecordBatch inserts a batch of packets: the whole batch lands in one
// shared lane under one lock acquisition.
func (p *Point[S]) RecordBatch(ps []SpreadPacket) {
	if len(ps) == 0 {
		return
	}
	l := p.claimLane(ps[0].Flow)
	l.apply(ps)
	l.mu.Unlock()
}

// RecordBatchFlows is RecordBatch over bare flow keys (element zero), for
// designs that ignore which element arrived.
func (p *Point[S]) RecordBatchFlows(fs []uint64) {
	if len(fs) == 0 {
		return
	}
	l := p.claimLane(fs[0])
	l.applyFlows(fs)
	l.mu.Unlock()
}

// claimLane locks a shared lane for a batch: the first one free, probing
// from lane 0, so a lone batching goroutine keeps one delta sketch hot and
// leaves the others clean for the fold points to skip, while concurrent
// batchers spill onto the next lanes. With every lane busy it waits on
// the lane of flow f.
func (p *Point[S]) claimLane(f uint64) *lane[S] {
	for _, l := range p.shared {
		if l.mu.TryLock() {
			return l
		}
	}
	l := p.shared[shardOf(f, len(p.shared))]
	l.mu.Lock()
	return l
}

// Query answers the approximate real-time networkwide T-query for flow f
// from the local C sketch plus the not-yet-folded ingest lanes. The
// on-the-fly fold (the algebra's union along f's row positions only) makes
// the answer bit-identical to the serial single-sketch path. Estimator
// noise can make spread answers slightly negative; callers needing counts
// should clamp at zero.
func (p *Point[S]) Query(f uint64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queryLocked(f)
}

// QueryWithCoverage answers Query(f) together with the coverage of the
// window the answer was computed from, read atomically so the pair is
// consistent across a concurrent epoch boundary.
func (p *Point[S]) QueryWithCoverage(f uint64) (float64, Coverage) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queryLocked(f), p.covCur
}

func (p *Point[S]) queryLocked(f uint64) float64 {
	var (
		stackExtras [maxShards + 4]S
		stackMu     [maxShards + 4]*sync.Mutex
	)
	extras, locked := p.gatherLocked(stackExtras[:0], stackMu[:0])
	est := p.c.EstimateUnion(f, extras)
	for _, mu := range locked {
		mu.Unlock()
	}
	return est
}

// gatherLocked appends the point's dirty ingest deltas to extras, locking
// each one. Caller holds p.mu and unlocks everything appended to locked.
func (p *Point[S]) gatherLocked(extras []S, locked []*sync.Mutex) ([]S, []*sync.Mutex) {
	for _, l := range p.lanes {
		if !l.dirty.Load() {
			continue
		}
		l.mu.Lock()
		locked = append(locked, &l.mu)
		extras = append(extras, l.d)
	}
	return extras, locked
}

// foldLanesLocked merges every dirty lane into each of dsts with the
// design's merge algebra; with drain set it also empties the lane. Caller
// holds p.mu.
func (p *Point[S]) foldLanesLocked(drain bool, dsts ...S) {
	for _, l := range p.lanes {
		if !l.dirty.Load() {
			continue
		}
		l.mu.Lock()
		for _, d := range dsts {
			mustMerge(d, l.d)
		}
		if drain {
			l.clear()
		}
		l.mu.Unlock()
	}
}

// buildUploadLocked is the delta-mode boundary fold, one merge per dirty
// lane: b, whose old contents are dropped, becomes a copy of the first
// dirty lane, every other dirty lane merges into it, and b merges into C'
// once. Caller holds p.mu.
func (p *Point[S]) buildUploadLocked(b S) {
	copied := false
	for _, l := range p.lanes {
		if !l.dirty.Load() {
			continue
		}
		l.mu.Lock()
		if copied {
			mustMerge(b, l.d)
		} else {
			mustCopy(b, l.d)
			copied = true
		}
		l.clear()
		l.mu.Unlock()
	}
	if copied {
		mustMerge(p.cp, b)
	} else {
		b.Reset() // an epoch without records
	}
}

// dropIngestLocked discards every lane's unfolded records. Caller holds
// p.mu.
func (p *Point[S]) dropIngestLocked() {
	for _, l := range p.lanes {
		l.mu.Lock()
		l.clear()
		l.mu.Unlock()
	}
}

// takeSpareLocked returns the recycled upload, or a fresh sketch when the
// caller never recycles. Caller holds p.mu.
func (p *Point[S]) takeSpareLocked() S {
	s := p.spare
	if IsNil(s) {
		return p.fresh()
	}
	var zero S
	p.spare = zero
	return s
}

// Recycle hands back an upload EndEpoch returned, once the caller is done
// with it (encoded and dropped), so the next boundary reuses its memory
// instead of allocating. The caller must hold no other reference to s.
// The reset runs outside the point mutex.
func (p *Point[S]) Recycle(s S) {
	if IsNil(s) {
		return
	}
	s.Reset()
	p.mu.Lock()
	p.spare = s
	p.mu.Unlock()
}

// EndEpoch performs the epoch-boundary actions (stage 2, local periodical
// measurement update) and returns the upload for the epoch that just
// ended: the per-epoch B in delta mode, or the cumulative C in cumulative
// mode. The returned sketch is owned by the caller, who may hand it back
// with Recycle.
//
// The upload is taken by pointer swap, not by cloning under the lock
// ("copy C' to C, reset C'" becomes C' → C and a new C'). Each dirty lane
// is folded once per sketch the boundary keeps. In delta mode B is built
// from the lanes in the memory of the C the boundary discards, and merged
// into C' once; C itself gets no merge. In cumulative mode each lane
// merges into C and C'. The boundary never stops the record path as a
// whole: it locks one lane at a time, for the length of that lane's fold.
func (p *Point[S]) EndEpoch() S {
	upload, _ := p.EndEpochMeta(false)
	return upload
}

// EndEpochMeta is EndEpoch returning the upload's protocol metadata (which
// center pushes its lineage absorbed — see UploadMeta; only additive
// designs track lineage, a max-merge upload is safe to re-merge blindly).
// With rebase set, a cumulative-mode point uploads a clone of C' instead
// of C: C' holds only the finished epoch's delta plus the aggregate
// applied during it, letting the center reseed its recovery chain after
// the point lost buffered uploads. Rebase is meaningless (and ignored) in
// delta mode.
func (p *Point[S]) EndEpochMeta(rebase bool) (S, UploadMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	meta := UploadMeta{Epoch: p.epoch}
	if p.additive {
		meta.AggApplied = p.aggAppliedPrev
		meta.EnhApplied = p.enhApplied
	}
	var upload S
	switch {
	case p.mode == ModeCumulative:
		p.foldLanesLocked(true, p.c, p.cp)
		upload = p.c
		if rebase {
			meta = UploadMeta{Epoch: p.epoch, Rebase: true, AggApplied: p.aggApplied}
			upload = p.cp.Clone()
		}
	case IsNil(p.b):
		upload = p.c
		p.buildUploadLocked(upload)
	default: // a restored B, already in C'
		p.foldLanesLocked(true, p.b, p.cp)
		upload = p.b
		var zero S
		p.b = zero
	}
	p.c, p.cp = p.cp, p.takeSpareLocked()
	p.rollCoverageLocked()
	p.epoch++
	return upload, meta
}

// rollCoverageLocked moves the staged aggregate's coverage onto the query
// target (C' becomes C at this boundary) and opens a fresh slot for the
// next epoch's push. Caller holds p.mu with p.epoch still the epoch that
// is ending.
func (p *Point[S]) rollCoverageLocked() {
	exp := expectedPointEpochs(p.topoPoints, p.topoN, p.epoch)
	m := p.covMerged
	if m < 0 || m > exp {
		m = exp // out of range (corrupt input): read as a whole window
	}
	p.covCur = Coverage{EpochsMerged: m, EpochsExpected: exp}
	p.covMerged = 0
	if p.additive {
		// One epoch of memory for the cumulative upload's lineage flag.
		p.aggAppliedPrev = p.aggApplied
	}
	p.aggApplied, p.enhApplied, p.backfilled = false, false, false
}

// ApplyAggregateCovAt merges the center's ST-join result (the networkwide
// join of the window's completed epochs, customized to this point's width)
// into C' (Task 3), with the aggregate's coverage: how many point-epoch
// uploads the center actually joined into it. Queries answered from the
// window this aggregate lands in report that coverage (QueryWithCoverage).
// The merge happens under the point's lock only if the point is still in
// epoch k: it returns ErrStaleEpoch otherwise (the push missed the
// round-trip bound and must be dropped, not merged into the wrong window),
// and ErrDuplicatePush if this epoch's aggregate was already merged (a
// reconnect re-push — in an additive design merging twice would double
// the counters). A nil aggregate is a no-op.
func (p *Point[S]) ApplyAggregateCovAt(k int64, agg S, merged int) error {
	if IsNil(agg) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epoch != k {
		return ErrStaleEpoch
	}
	if p.aggApplied {
		return ErrDuplicatePush
	}
	if err := p.cp.Merge(agg); err != nil {
		return fmt.Errorf("%s point %d: apply aggregate: %w", p.design, p.id, err)
	}
	p.aggApplied = true
	p.covMerged = merged
	return nil
}

// ApplyEnhancementAt merges the peers' last-completed-epoch join directly
// into C (the Section IV-D enhancement), tightening the current epoch's
// answers toward the exact networkwide T-query; in cumulative mode the
// center compensates for this at recovery time. Guarded like
// ApplyAggregateCovAt: ErrStaleEpoch unless the point is in epoch k,
// ErrDuplicatePush if this epoch's enhancement was already merged.
func (p *Point[S]) ApplyEnhancementAt(k int64, enh S) error {
	if IsNil(enh) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epoch != k {
		return ErrStaleEpoch
	}
	if p.enhApplied {
		return ErrDuplicatePush
	}
	if err := p.c.Merge(enh); err != nil {
		return fmt.Errorf("%s point %d: apply enhancement: %w", p.design, p.id, err)
	}
	p.enhApplied = true
	return nil
}
