package core

import (
	"fmt"
)

// Snapshot returns the point's epoch and deep copies of its sketches (B,
// C, C'), taken atomically. Together with RestoreSnapshot it lets an agent
// persist its state across restarts without losing the window. The ingest
// lanes are folded first, so persisted state is lane-free and portable
// across lane-count configurations. In cumulative mode (no B sketch) the
// returned b is nil.
func (p *Point[S]) Snapshot() (epoch int64, b, c, cp S) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flushIngestLocked()
	if !IsNil(p.b) {
		b = p.b.Clone()
	}
	return p.epoch, b, p.c.Clone(), p.cp.Clone()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	if IsNil(p.b) != IsNil(b) {
		return fmt.Errorf("core: snapshot upload mode does not match the point's")
	}
	if !IsNil(p.b) {
		if err := p.b.CopyFrom(b); err != nil {
			return fmt.Errorf("core: restore B: %w", err)
		}
	}
	if err := p.c.CopyFrom(c); err != nil {
		return fmt.Errorf("core: restore C: %w", err)
	}
	if err := p.cp.CopyFrom(cp); err != nil {
		return fmt.Errorf("core: restore C': %w", err)
	}
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
