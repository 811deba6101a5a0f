package core

import "fmt"

// Point durability. A point's sketches and its push lineage are one fact:
// the center's cumulative recovery (Section V-B) subtracts exactly the
// pushes the point's C absorbed, whether the aggregate was merged into C'
// decides whether a re-pushed aggregate is applied or refused as a
// duplicate, and the coverage shown to queries must reflect what the
// window really holds. PointState carries all of it, so a checkpoint
// restores it in one step. Rejoin and ApplyBackfillCovAt implement the
// center-assisted backfill a point runs when its window predates the
// cluster clock.

// PointState is the whole state of a measurement point: the epoch, the
// sketch set, the push-lineage flags, the coverage accounting and the
// topology. ExportState reads it and ImportState installs it.
type PointState[S any] struct {
	Epoch int64
	// B is the per-epoch measurement, whose records C' already holds
	// (delta mode only; the zero value in cumulative mode). C is the query
	// target and CP is C', the staging for the next epoch.
	B, C, CP S
	// TopoPoints and TopoN mirror SetTopology.
	TopoPoints int
	TopoN      int
	// AggApplied/EnhApplied record whether this epoch's center pushes were
	// merged (into C' and C respectively). AggAppliedPrev is the additive
	// designs' one-epoch memory of AggApplied (the cumulative upload C_e
	// carries the aggregate applied during e-1); the spread design never
	// sets it. Backfilled records whether a restart backfill was merged
	// into C this epoch.
	AggApplied     bool
	AggAppliedPrev bool
	EnhApplied     bool
	Backfilled     bool
	// CovMerged is the point-epoch count of the aggregate staged in C'.
	CovMerged int
	// Cov is the coverage of the current query target C.
	Cov Coverage
}

// ExportState returns the point's state, read atomically, with deep
// copies of its sketches. The ingest lanes are folded into the copies,
// not into the point, so the state is lane-free and portable across
// lane-count configurations, and the point never holds a B whose records
// C' already has.
func (p *Point[S]) ExportState() PointState[S] {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PointState[S]{
		Epoch:          p.epoch,
		C:              p.c.Clone(),
		CP:             p.cp.Clone(),
		TopoPoints:     p.topoPoints,
		TopoN:          p.topoN,
		AggApplied:     p.aggApplied,
		AggAppliedPrev: p.aggAppliedPrev,
		EnhApplied:     p.enhApplied,
		Backfilled:     p.backfilled,
		CovMerged:      p.covMerged,
		Cov:            p.covCur,
	}
	dsts := []S{st.C, st.CP}
	if p.mode == ModeDelta {
		if IsNil(p.b) {
			st.B = p.fresh()
		} else {
			st.B = p.b.Clone()
		}
		dsts = append(dsts, st.B)
	}
	p.foldLanesLocked(false, dsts...)
	return st
}

// ImportState replaces the point's whole state, unfolded records
// included, with copies of st's, under one hold of the point's lock. It
// installs nothing unless st's epoch obeys the epoch rule (CheckEpoch),
// its sketches match the point's shape, and B is present exactly when
// the point keeps one (delta mode). The restored B already sits in C', so
// the point keeps it as its B: this epoch's boundary folds each lane into
// B and C' separately.
func (p *Point[S]) ImportState(st PointState[S]) error {
	if err := CheckEpoch(st.Epoch, 1); err != nil {
		return fmt.Errorf("core: point state: %w", err)
	}
	if IsNil(st.C) || IsNil(st.CP) {
		return fmt.Errorf("core: nil sketch in point state")
	}
	if (p.mode == ModeDelta) == IsNil(st.B) {
		return fmt.Errorf("core: point state upload mode does not match the point's")
	}
	restore := func(name string, src S) (S, error) {
		dst := p.fresh()
		if err := dst.CopyFrom(src); err != nil {
			return dst, fmt.Errorf("core: restore %s: %w", name, err)
		}
		return dst, nil
	}
	c, err := restore("C", st.C)
	if err != nil {
		return err
	}
	cp, err := restore("C'", st.CP)
	if err != nil {
		return err
	}
	var b S
	if !IsNil(st.B) {
		if b, err = restore("B", st.B); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropIngestLocked()
	p.epoch, p.b, p.c, p.cp = st.Epoch, b, c, cp
	p.topoPoints, p.topoN = st.TopoPoints, st.TopoN
	p.aggApplied, p.aggAppliedPrev = st.AggApplied, st.AggAppliedPrev
	p.enhApplied, p.backfilled = st.EnhApplied, st.Backfilled
	p.covMerged, p.covCur = st.CovMerged, st.Cov
	return nil
}

// Rejoin fast-forwards the point to epoch, the cluster's current epoch,
// and reports whether it moved; an epoch at or behind the point's own
// changes nothing. The window the point held belongs to epochs the
// cluster has moved past, and merging it under the new epoch would
// double-count epochs the center's backfill aggregate already contains,
// so the whole sketch set (B, C, C' and the ingest lanes) is zeroed, the
// lineage flags clear and the current window's coverage restarts empty.
func (p *Point[S]) Rejoin(epoch int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch <= p.epoch {
		return false
	}
	var zero S
	p.epoch, p.b = epoch, zero
	p.c.Reset()
	p.cp.Reset()
	p.dropIngestLocked()
	p.covCur = Coverage{EpochsExpected: expectedPointEpochs(p.topoPoints, p.topoN, epoch-1)}
	p.covMerged = 0
	p.aggApplied, p.aggAppliedPrev, p.enhApplied, p.backfilled = false, false, false, false
	return true
}

// ApplyBackfillCovAt merges a center-resent aggregate for the missed epoch
// k-1 directly into the current query target C, restoring the window a
// restarted point lost. Unlike ApplyAggregateCovAt (which stages into C'
// for the next epoch), the backfill takes effect immediately: coverage of
// the current window jumps to what the center joined. Guarded like the
// other push appliers: ErrStaleEpoch if the point moved past epoch k,
// ErrDuplicatePush if a backfill was already merged this epoch. A merged
// count outside [0, expected] reads as a whole window.
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
