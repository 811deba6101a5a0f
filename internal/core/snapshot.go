package core

import (
	"fmt"
)

// Snapshot returns the point's epoch and deep copies of its sketches (B,
// C, C'), taken atomically. Together with RestoreSnapshot it lets an agent
// persist its state across restarts without losing the window. The ingest
// lanes are folded into the copies, not into the point, so persisted
// state is lane-free and portable across lane-count configurations, and
// the point never holds a B whose records C' already has. In cumulative
// mode (no B sketch) the returned b is nil.
func (p *Point[S]) Snapshot() (epoch int64, b, c, cp S) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, cp = p.c.Clone(), p.cp.Clone()
	dsts := []S{c, cp}
	if p.mode == ModeDelta {
		if IsNil(p.b) {
			b = p.fresh()
		} else {
			b = p.b.Clone()
		}
		dsts = append(dsts, b)
	}
	p.foldLanesLocked(false, dsts...)
	return p.epoch, b, c, cp
}

// RestoreSnapshot overwrites the point's state with a snapshot. The
// sketches must match the point's configured shape, and b must be nil
// exactly when the point keeps no B sketch (cumulative mode).
func (p *Point[S]) RestoreSnapshot(epoch int64, b, c, cp S) error {
	if epoch < 1 {
		return fmt.Errorf("core: invalid snapshot epoch %d", epoch)
	}
	if IsNil(c) || IsNil(cp) || (!p.additive && IsNil(b)) {
		return fmt.Errorf("core: nil sketch in snapshot")
	}
	if (p.mode == ModeDelta) == IsNil(b) {
		return fmt.Errorf("core: snapshot upload mode does not match the point's")
	}
	// The restored B already sits in C', so the point keeps it as its B:
	// this epoch's boundary folds each lane into B and C' separately.
	var held S
	if !IsNil(b) {
		held = p.fresh()
		if err := held.CopyFrom(b); err != nil {
			return fmt.Errorf("core: restore B: %w", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.c.CopyFrom(c); err != nil {
		return fmt.Errorf("core: restore C: %w", err)
	}
	if err := p.cp.CopyFrom(cp); err != nil {
		return fmt.Errorf("core: restore C': %w", err)
	}
	p.b = held
	// The restored snapshot replaces the whole state, unfolded records
	// included.
	p.dropIngestLocked()
	p.epoch = epoch
	// Snapshots are taken from healthy state and carry whatever aggregates
	// were merged (the pre-flag protocol's assumption); report the restored
	// window as whole and the lineage flags as applied.
	p.covMerged = -1
	p.covCur = Coverage{}
	p.aggApplied, p.enhApplied = true, true
	if p.additive {
		p.aggAppliedPrev = true
	}
	return nil
}
