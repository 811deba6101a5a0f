package core

// Point-side durability helpers. RestoreSnapshot restores the sketch set
// but deliberately assumes a healthy lineage (all pushes applied, coverage
// whole) — the right call for a clean shutdown/restart. A crash-recovery
// checkpoint cannot afford that optimism: whether the center's aggregate
// was merged into C' decides whether a re-pushed aggregate must be applied
// or rejected as a duplicate, and the coverage shown to queries must
// reflect what the window really held. PointMeta captures that accounting
// so a checkpoint restore is honest; ResetWindow and ApplyBackfillCovAt
// implement the center-assisted backfill a point runs when its restored
// window predates the cluster clock.

// PointMeta is the degradation-accounting state of a measurement point:
// the push-lineage flags, the staged aggregate's coverage, and the current
// query target's coverage. Together with a sketch snapshot it forms a
// complete, honest checkpoint of the point.
type PointMeta struct {
	// TopoPoints and TopoN mirror SetTopology.
	TopoPoints int
	TopoN      int
	// AggApplied/EnhApplied record whether this epoch's center pushes were
	// merged (into C' and C respectively). AggAppliedPrev is the additive
	// designs' one-epoch memory of AggApplied (the cumulative upload C_e
	// carries the aggregate applied during e-1); the spread design ignores
	// it. Backfilled records whether a restart backfill was merged into C
	// this epoch.
	AggApplied     bool
	AggAppliedPrev bool
	EnhApplied     bool
	Backfilled     bool
	// CovMerged is the point-epoch count of the aggregate staged in C'
	// (-1 = applied without coverage info).
	CovMerged int
	// Cov is the coverage of the current query target C.
	Cov Coverage
}

// Meta returns the point's degradation-accounting state, read atomically.
// AggAppliedPrev stays false for non-additive designs, which never set it.
func (p *Point[S]) Meta() PointMeta {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PointMeta{
		TopoPoints:     p.topoPoints,
		TopoN:          p.topoN,
		AggApplied:     p.aggApplied,
		AggAppliedPrev: p.aggAppliedPrev,
		EnhApplied:     p.enhApplied,
		Backfilled:     p.backfilled,
		CovMerged:      p.covMerged,
		Cov:            p.covCur,
	}
}

// RestoreMeta overwrites the point's degradation accounting, typically
// right after RestoreSnapshot replaced the sketches with a checkpoint
// (undoing RestoreSnapshot's healthy-lineage assumption).
func (p *Point[S]) RestoreMeta(m PointMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.topoPoints, p.topoN = m.TopoPoints, m.TopoN
	p.aggApplied = m.AggApplied
	p.aggAppliedPrev = m.AggAppliedPrev
	p.enhApplied = m.EnhApplied
	p.backfilled = m.Backfilled
	p.covMerged = m.CovMerged
	p.covCur = m.Cov
}

// ResetWindow zeroes the point's whole sketch set (B, C, C' and the ingest
// lanes) and resets coverage to empty at the current epoch. A point whose
// restored checkpoint predates the cluster clock calls it after AdvanceTo:
// the stale window must not pollute the backfilled one the center is about
// to send (merging an old C under a new epoch would double-count epochs
// the backfill aggregate already contains).
func (p *Point[S]) ResetWindow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var zero S
	p.b = zero
	p.c.Reset()
	p.cp.Reset()
	p.dropIngestLocked()
	p.covCur = Coverage{EpochsExpected: expectedPointEpochs(p.topoPoints, p.topoN, p.epoch-1)}
	p.covMerged = 0
	p.aggApplied, p.aggAppliedPrev, p.enhApplied, p.backfilled = false, false, false, false
}

// ApplyBackfillCovAt merges a center-resent aggregate for the missed epoch
// k-1 directly into the current query target C, restoring the window a
// restarted point lost. Unlike ApplyAggregateCovAt (which stages into C'
// for the next epoch), the backfill takes effect immediately: coverage of
// the current window jumps to what the center joined. Guarded like the
// other push appliers: ErrStaleEpoch if the point moved past epoch k,
// ErrDuplicatePush if a backfill was already merged this epoch. merged < 0
// means "coverage unknown, assume whole".
//
// In cumulative mode the backfill inflates C with epochs the center
// already holds, so the next upload MUST be a rebase (EndEpochMeta(true))
// — the transport layer arranges that whenever a restart advanced the
// epoch clock.
func (p *Point[S]) ApplyBackfillCovAt(k int64, agg S, merged int) error {
	if IsNil(agg) {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.epoch != k {
		return ErrStaleEpoch
	}
	if p.backfilled {
		return ErrDuplicatePush
	}
	if err := p.c.Merge(agg); err != nil {
		return err
	}
	p.backfilled = true
	p.covCur = backfillCoverage(p.topoPoints, p.topoN, k, merged)
	return nil
}

// backfillCoverage is the coverage of a window rebuilt from the aggregate
// the center pushed during epoch k-1 (span [k-n+1, k-2] — exactly the
// center part of epoch k's window).
func backfillCoverage(points, windowN int, k int64, merged int) Coverage {
	exp := expectedPointEpochs(points, windowN, k-1)
	if merged < 0 || merged > exp {
		merged = exp
	}
	return Coverage{EpochsMerged: merged, EpochsExpected: exp}
}
