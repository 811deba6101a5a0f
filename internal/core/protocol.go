package core

import "fmt"

// EpochLimit bounds every epoch a node accepts from a peer. An upload's
// epoch lies in [1, EpochLimit) and a Hello's state epoch in
// [0, EpochLimit) (a relay that has forwarded nothing announces 0), so
// every e ± n ± 1 the window, trim and resync arithmetic forms stays
// inside int64.
const EpochLimit int64 = 1 << 62

// CheckEpoch reports an error unless lowest <= epoch < EpochLimit: the one
// epoch rule at every node's door (lowest is 1 for an upload, 0 for a
// Hello's state epoch).
func CheckEpoch(epoch, lowest int64) error {
	if epoch < lowest || epoch >= EpochLimit {
		return fmt.Errorf("epoch %d outside [%d, 2^62)", epoch, lowest)
	}
	return nil
}

// UploadMeta rides along with an epoch upload and tells the center which
// center-sent sketches the upload's lineage actually absorbed. A healthy
// deployment always merges every push, so the flags are always true there;
// under faults (dropped or stale pushes, reconnects) they let the
// flow-size design's cumulative inversion subtract exactly what the point
// merged — no more, no less — keeping recovered deltas exact instead of
// silently corrupting the window.
type UploadMeta struct {
	// Epoch is the epoch the upload measures (the epoch that just ended).
	Epoch int64
	// AggApplied reports whether the center aggregate belonging to this
	// upload's lineage was merged: for a cumulative C upload of epoch e,
	// the aggregate applied during e-1; for a rebase C' upload of epoch e,
	// the aggregate applied during e.
	AggApplied bool
	// EnhApplied reports whether the enhancement applied during the
	// upload's epoch was merged (cumulative C uploads only; C' never
	// holds the enhancement).
	EnhApplied bool
	// Rebase marks a C' upload sent to reseed cumulative recovery after
	// the point lost buffered uploads: C' holds only the finished epoch's
	// delta (plus the aggregate applied during it), so the center can
	// recover the delta without the missing previous epoch.
	Rebase bool
}
