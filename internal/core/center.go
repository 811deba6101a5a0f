package core

import (
	"fmt"
	"slices"
	"sync"
)

// The generic measurement center: the single implementation of the
// center-side epoch engine — upload ingestion, the spatio-temporal join
// (eq. (5)), enhancement, coverage accounting and window trimming.
// SpreadCenter and SizeCenter are thin instantiations; the differences
// between the designs hang off EngineConfig:
//
//   - A max-merge design (spread) stores uploads as independent per-epoch
//     facts: duplicates are dropped idempotently, late uploads fill window
//     holes, and pushes need no bookkeeping because re-merging is free.
//   - An additive design (size) enforces strict upload sequencing, clones
//     on receive, records every sent push, and — in cumulative mode —
//     inverts each upload into a per-epoch delta by subtraction
//     (Section V-B).
//
// The join is built once per round, not once per destination point. Each
// epoch's cells are spatially joined at the maximum width into a per-epoch
// partial (computeEpochPartial, the function the historical replay uses);
// the window pushed during k is the merge of its n-2 partials, compressed
// once per distinct point width. Consecutive windows share n-3 partials,
// so a round costs O(p) expand-and-merges for the newest epoch plus O(n)
// partial merges. An accepted upload drops its epoch's partial and every
// round memo whose span contains it; trimming drops both with the uploads.
type Center[S Sketch[S]] struct {
	mu sync.Mutex

	windowN  int
	design   string
	mode     Mode
	additive bool
	sub      func(dst, src S) error

	protos map[int]S // zero-state prototype per point (width + shape)
	wMax   int
	wide   int // a point whose width is wMax

	// uploads[point][epoch] is the single-epoch measurement: the uploaded
	// B sketch for a delta-mode max design, the recovered delta for the
	// size design. Old epochs are trimmed once outside every window.
	uploads map[int]map[int64]S
	// ids lists the point ids in ascending order.
	ids []int
	// part[e] is epoch e's spatial join at wMax over the stored uploads,
	// built lazily.
	part map[int64]epochPartial[S]
	// rounds[k] memoizes the window aggregate pushed during k.
	rounds map[int64]*roundMemo[S]

	// sentAgg[point][epoch] is the aggregate pushed to point during that
	// epoch, exactly as sent (customized width); additive designs need it
	// to invert cumulative uploads and to re-push idempotently. Points of
	// one width share the round memo's sketch, which is never mutated.
	sentAgg map[int]map[int64]S
	// sentEnh[point][epoch] is the enhancement pushed during that epoch.
	sentEnh map[int]map[int64]S
	// lastEpoch[point] is the most recent epoch the point uploaded; the
	// transport layer uses it to resynchronize reconnecting points.
	// Additive designs also use it to enforce sequencing.
	lastEpoch map[int]int64
	// chainBroken[point] marks a cumulative-mode point whose recovery
	// chain lost an epoch (upload gap): the inversion needs the previous
	// epoch's delta, so post-gap uploads are unusable until the point
	// sends a rebase upload (see UploadMeta.Rebase).
	chainBroken map[int]bool
	// weights[point] is the number of leaf measurement points one upload
	// from this child represents: 1 for a direct point, the subtree's leaf
	// count for a relay (see Relay.Weight). Coverage accounting multiplies
	// by it so a tree-fed center reports the same merged/expected counts a
	// flat center would. Every point has an entry (>= 1).
	weights map[int]int

	// replay, when non-nil, caches per-epoch partials for the historical
	// replay path (see ReplayCache).
	replay *ReplayCache[S]
}

// NewCenter creates a center for a cluster whose points use the given
// sketch prototypes (keyed by point id), with the design discipline fixed
// by cfg. All prototypes must be mutually compatible, and the maximum
// width must be a multiple of every width (power-of-two-ratio widths
// satisfy this). ModeCumulative requires cfg.Sub.
func NewCenter[S Sketch[S]](windowN int, protos map[int]S, cfg EngineConfig[S]) (*Center[S], error) {
	wMax, err := checkNode(windowN, protos, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeCumulative && cfg.Sub == nil {
		return nil, fmt.Errorf("core: cumulative mode requires a subtraction operator")
	}
	c := &Center[S]{
		windowN:   windowN,
		design:    cfg.Design,
		mode:      cfg.Mode,
		additive:  cfg.Additive,
		sub:       cfg.Sub,
		protos:    make(map[int]S, len(protos)),
		wMax:      wMax,
		uploads:   make(map[int]map[int64]S, len(protos)),
		lastEpoch: make(map[int]int64, len(protos)),
		weights:   make(map[int]int, len(protos)),
	}
	c.resetJoinLocked()
	if cfg.Additive {
		c.sentAgg = make(map[int]map[int64]S, len(protos))
		c.sentEnh = make(map[int]map[int64]S, len(protos))
		c.chainBroken = make(map[int]bool, len(protos))
	}
	for id, p := range protos {
		c.protos[id] = p.Clone()
		c.uploads[id] = make(map[int64]S)
		c.weights[id] = 1
		c.ids = append(c.ids, id)
		if cfg.Additive {
			c.sentAgg[id] = make(map[int64]S)
			c.sentEnh[id] = make(map[int64]S)
		}
	}
	slices.Sort(c.ids)
	for _, id := range c.ids {
		if c.protos[id].Width() == wMax {
			c.wide = id
			break
		}
	}
	return c, nil
}

// SetWeight declares that one upload from the given child represents
// weight leaf measurement points — used when the child is a relay whose
// uploads pre-merge a whole subtree (weight = the subtree's leaf count).
// The default weight is 1 (a direct point). Weights below 1 are clamped
// to 1; an unknown child is ignored.
func (c *Center[S]) SetWeight(point, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.protos[point]; !ok {
		return
	}
	if weight < 1 {
		weight = 1
	}
	if c.weights[point] != weight {
		// Memoized round coverage is weighted; partials are not.
		clear(c.rounds)
	}
	c.weights[point] = weight
}

// EnableReplayCache attaches a replay cache with the given byte budget
// to the historical query path. Passing budgetBytes <= 0 detaches any
// cache. Safe to call at any time; in-flight queries keep whichever
// cache they snapshotted.
func (c *Center[S]) EnableReplayCache(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if budgetBytes <= 0 {
		c.replay = nil
		return
	}
	c.replay = NewReplayCache[S](budgetBytes)
}

// ResetReplayCache drops all cached replay state (cold-path benchmarks).
func (c *Center[S]) ResetReplayCache() {
	c.mu.Lock()
	rc := c.replay
	c.mu.Unlock()
	if rc != nil {
		rc.Reset()
	}
}

// ReplayCacheStats snapshots the replay cache; ok is false when no cache
// is attached.
func (c *Center[S]) ReplayCacheStats() (ReplayCacheStats, bool) {
	c.mu.Lock()
	rc := c.replay
	c.mu.Unlock()
	if rc == nil {
		return ReplayCacheStats{}, false
	}
	return rc.Stats(), true
}

// Weight returns the leaf count one upload from the child represents
// (>= 1; 1 unless SetWeight raised it).
func (c *Center[S]) Weight(point int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weightLocked(point)
}

// TotalWeight is the number of leaf measurement points the whole cluster
// represents — the sum of the direct children's weights.
func (c *Center[S]) TotalWeight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, w := range c.weights {
		total += w
	}
	return total
}

func (c *Center[S]) weightLocked(point int) int {
	if w, ok := c.weights[point]; ok {
		return w
	}
	return 1
}

// Receive is ReceiveMeta for the healthy in-process path, where every
// center push was applied (max-merge designs ignore the flags). Transports
// that can lose pushes use ReceiveMeta.
func (c *Center[S]) Receive(point int, epoch int64, upload S) error {
	return c.ReceiveMeta(point, epoch, upload, UploadMeta{Epoch: epoch, AggApplied: true, EnhApplied: true})
}

// ReceiveMeta ingests point's upload for the given epoch and stores (for
// an additive design: recovers) that epoch's measurement, subtracting only
// the pushes the upload's lineage actually absorbed (meta; max-merge
// designs ignore it). Degraded sequences are tolerated rather than fatal.
//
// Max-merge designs treat per-epoch uploads as independent: a duplicate
// epoch is dropped idempotently (ErrDuplicateUpload) and a late upload
// that arrives out of order fills its window hole and improves future
// joins' coverage. Additive designs enforce sequencing: an epoch at or
// before the last ingested one is dropped idempotently
// (ErrDuplicateUpload); in cumulative mode an epoch gap breaks the
// recovery chain, so post-gap uploads are dropped (ErrUploadGap) until a
// rebase upload reseeds the chain; in delta mode uploads are independent
// and gaps merely leave window holes, which CoverageFor reports.
func (c *Center[S]) ReceiveMeta(point int, epoch int64, upload S, meta UploadMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	per, ok := c.uploads[point]
	if !ok {
		return fmt.Errorf("core: unknown %s point %d", c.design, point)
	}
	if !sameShape(c.protos[point], upload) {
		return fmt.Errorf("core: upload from point %d does not match its declared sketch", point)
	}
	if err := CheckEpoch(epoch, 1); err != nil {
		return fmt.Errorf("core: upload from point %d: %w", point, err)
	}
	if !c.additive {
		if _, dup := per[epoch]; dup {
			return ErrDuplicateUpload
		}
		// Stored without cloning: re-merging a max sketch is idempotent, so
		// the center may alias the caller's (ownership-transferred) upload.
		per[epoch] = upload
		c.invalidateLocked(epoch)
		if epoch > c.lastEpoch[point] {
			c.lastEpoch[point] = epoch
		}
		c.trimLocked(c.lastEpoch[point])
		return nil
	}
	last := c.lastEpoch[point]
	if epoch <= last {
		return ErrDuplicateUpload
	}
	delta := upload.Clone()
	if c.mode == ModeCumulative {
		sub := func(sk S, ok bool) error {
			if !ok {
				return nil
			}
			if err := c.sub(delta, sk); err != nil {
				return fmt.Errorf("core: recover point %d epoch %d: %w", point, epoch, err)
			}
			return nil
		}
		switch {
		case meta.Rebase:
			// C' = delta_{x,epoch} + agg applied during epoch: a clean
			// reseed regardless of what came before.
			if meta.AggApplied {
				agg, ok := c.sentAgg[point][epoch]
				if err := sub(agg, ok); err != nil {
					return err
				}
			}
			c.chainBroken[point] = false
		case epoch != last+1 || c.chainBroken[point]:
			// The chain lost an epoch: C contains the missing previous
			// delta and nothing can subtract it. Drop the payload, keep
			// the sequence position, wait for a rebase.
			c.chainBroken[point] = true
			c.lastEpoch[point] = epoch
			c.trimLocked(epoch)
			return ErrUploadGap
		default:
			// Invert the cumulative upload (Section V-B):
			//   C_{x,k} = agg applied during k-1 + enh applied during k
			//           + delta_{x,k-1} + delta_{x,k}.
			prev, ok := per[epoch-1]
			if err := sub(prev, ok); err != nil {
				return err
			}
			if meta.AggApplied {
				agg, ok := c.sentAgg[point][epoch-1]
				if err := sub(agg, ok); err != nil {
					return err
				}
			}
			if meta.EnhApplied {
				enh, ok := c.sentEnh[point][epoch]
				if err := sub(enh, ok); err != nil {
					return err
				}
			}
		}
	}
	per[epoch] = delta
	c.invalidateLocked(epoch)
	c.lastEpoch[point] = epoch
	c.trimLocked(epoch)
	return nil
}

// LastEpoch returns the most recent epoch the point has uploaded (0 if
// none).
func (c *Center[S]) LastEpoch(point int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch[point]
}

// MaxEpoch returns the most recent epoch any point has uploaded (0 if
// none) — the cluster's epoch clock as the center sees it.
func (c *Center[S]) MaxEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m int64
	for _, e := range c.lastEpoch {
		if e > m {
			m = e
		}
	}
	return m
}

// CoverageFor counts, for the aggregate pushed during epoch k, how many
// point-epoch measurements the center actually holds in the eq. (5) join
// range versus how many a fully healthy window would contribute. Each
// child's epochs count with its weight: a relay's combined upload stands
// for its whole subtree's point-epochs, so a tree-fed center reports the
// same counts a flat one would (an epoch a relay forwards is, by the
// all-children barrier, present for every leaf beneath it).
func (c *Center[S]) CoverageFor(k int64) (merged, expected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.rounds[k]; ok {
		return m.cov.EpochsMerged, m.cov.EpochsExpected
	}
	cov := c.coverageLocked(k)
	return cov.EpochsMerged, cov.EpochsExpected
}

// coverageLocked counts the weighted point-epochs the center holds in the
// span of the aggregate pushed during k, against a healthy window's.
func (c *Center[S]) coverageLocked(k int64) Coverage {
	var cov Coverage
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return cov
	}
	span := int(last - first + 1)
	for id, per := range c.uploads {
		w := c.weightLocked(id)
		for e := first; e <= last; e++ {
			if _, ok := per[e]; ok {
				cov.EpochsMerged += w
			}
		}
		cov.EpochsExpected += w * span
	}
	return cov
}

// NewSketch returns a zero sketch of point's declared shape: the target
// the point's uploads decode into, so one naming other dimensions is
// rejected before it allocates. ok is false for an unknown point.
func (c *Center[S]) NewSketch(point int) (S, bool) { return cloneOf(c.protos, point) }

// NewPartialSketch returns a zero sketch at the maximum width: the shape
// of every merged partial, which a stored partial decodes into.
func (c *Center[S]) NewPartialSketch() S { return c.protos[c.wide].Clone() }

// HasUpload reports whether the center holds point's measurement for
// epoch. The transport layer uses it after an ImportState to rebuild its
// round-completion accounting for epochs the restored rounds had not yet
// pushed.
func (c *Center[S]) HasUpload(point int, epoch int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.uploads[point][epoch]
	return ok
}

// trimLocked drops measurements (and, for additive designs, sent pushes)
// too old to contribute to any future join.
func (c *Center[S]) trimLocked(latest int64) {
	floor := latest - int64(c.windowN) - 1
	trim := func(maps map[int]map[int64]S) {
		for _, per := range maps {
			for e := range per {
				if e < floor {
					delete(per, e)
				}
			}
		}
	}
	trim(c.uploads)
	if c.additive {
		trim(c.sentAgg)
		trim(c.sentEnh)
	}
	for e := range c.part {
		if e < floor {
			delete(c.part, e)
		}
	}
	for k := range c.rounds {
		if first, _, _ := aggregateSpan(k, c.windowN); first < floor {
			delete(c.rounds, k)
		}
	}
}

// liveSource serves the center's window store to computeEpochPartial.
// Cells are borrowed (the EpochSource contract): the partial clones what
// it keeps, so no partial aliases a stored upload.
type liveSource[S Sketch[S]] map[int]map[int64]S

func (ls liveSource[S]) EpochCells(epoch int64, points []int, visit func(int, S) error) error {
	for _, id := range points {
		if sk, ok := ls[id][epoch]; ok {
			if err := visit(id, sk); err != nil {
				return err
			}
		}
	}
	return nil
}

// roundMemo is the window aggregate pushed during one epoch: the join at
// wMax, its compression to each point width (built on first request), and
// its coverage. Its sketches are shared by every caller and never mutated.
type roundMemo[S Sketch[S]] struct {
	joined  S // nil when no epoch in the span holds data
	byWidth map[int]S
	cov     Coverage
}

// maxRoundMemos bounds the memoized rounds: the live push needs one, a
// backfill the one before it.
const maxRoundMemos = 4

// resetJoinLocked drops every per-epoch partial and round memo.
func (c *Center[S]) resetJoinLocked() {
	c.part = make(map[int64]epochPartial[S])
	c.rounds = make(map[int64]*roundMemo[S])
}

// invalidateLocked drops the state an accepted upload for epoch stales:
// the epoch's partial and every round memo whose span contains it.
func (c *Center[S]) invalidateLocked(epoch int64) {
	delete(c.part, epoch)
	for k := range c.rounds {
		if first, last, ok := aggregateSpan(k, c.windowN); ok && first <= epoch && epoch <= last {
			delete(c.rounds, k)
		}
	}
}

// partialLocked returns epoch e's merged partial, building it on first use.
func (c *Center[S]) partialLocked(e int64) (epochPartial[S], error) {
	if p, ok := c.part[e]; ok {
		return p, nil
	}
	p, err := computeEpochPartial(e, c.ids, c.wMax, liveSource[S](c.uploads))
	if err != nil {
		return p, err
	}
	c.part[e] = p
	return p, nil
}

// roundLocked returns the memoized window aggregate pushed during k (eq.
// (5): epochs k-n+2 .. k-1), joining it from per-epoch partials on first
// use.
func (c *Center[S]) roundLocked(k int64) (*roundMemo[S], error) {
	if m, ok := c.rounds[k]; ok {
		return m, nil
	}
	m := &roundMemo[S]{byWidth: make(map[int]S), cov: c.coverageLocked(k)}
	if first, last, ok := aggregateSpan(k, c.windowN); ok {
		for e := first; e <= last; e++ {
			p, err := c.partialLocked(e)
			if err != nil {
				return nil, err
			}
			if !p.have {
				continue
			}
			if IsNil(m.joined) {
				m.joined = p.sk.Clone()
				continue
			}
			if err := m.joined.Merge(p.sk); err != nil {
				return nil, fmt.Errorf("core: window join epoch %d: %w", e, err)
			}
		}
	}
	if len(c.rounds) >= maxRoundMemos {
		oldest := k
		for r := range c.rounds {
			oldest = min(oldest, r)
		}
		delete(c.rounds, oldest)
	}
	c.rounds[k] = m
	return m, nil
}

// aggregateLocked returns the shared aggregate for (point, k): the
// additive design's recorded push if one exists, else the round memo's
// compression to the point's width, recorded as sent for additive designs.
func (c *Center[S]) aggregateLocked(point int, k int64) (S, error) {
	var zero S
	proto, ok := c.protos[point]
	if !ok {
		return zero, fmt.Errorf("core: unknown %s point %d", c.design, point)
	}
	if c.additive {
		if sent, ok := c.sentAgg[point][k]; ok {
			return sent, nil
		}
	}
	m, err := c.roundLocked(k)
	if err != nil || IsNil(m.joined) {
		return zero, err
	}
	w := proto.Width()
	out, ok := m.byWidth[w]
	if !ok {
		if out, err = m.joined.CompressTo(w); err != nil {
			return zero, err
		}
		m.byWidth[w] = out
	}
	if c.additive {
		c.sentAgg[point][k] = out
	}
	return out, nil
}

// AggregateFor computes, during epoch k, the networkwide join of epochs
// k-n+2 .. k-1 (eq. (3)'s center-provided part, eq. (5)), compressed to
// the requesting point's width. It returns a nil sketch when no epoch in
// the range has data (cluster start-up). For additive designs the result
// is recorded as sent (required for recovery in cumulative mode) and the
// call is idempotent per (point, k): repeated calls return the recorded
// aggregate. The result is the caller's to mutate.
func (c *Center[S]) AggregateFor(point int, k int64) (S, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, err := c.aggregateLocked(point, k)
	if err != nil || IsNil(out) {
		return out, err
	}
	return out.Clone(), nil
}

// AggregateShared is AggregateFor without the copy: the returned sketch is
// shared with every point of the same width and with the center's
// bookkeeping, so the caller must not mutate it. The same sketch value is
// returned until an accepted upload or a topology change invalidates the
// round, which lets a caller cache per-sketch work such as its encoding.
func (c *Center[S]) AggregateShared(point int, k int64) (S, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aggregateLocked(point, k)
}

// EnhancementFor computes, during epoch k, the join over peers (all points
// except the requester) of the last completed epoch k-1, compressed to the
// requesting point's width (Section IV-D). It returns a nil sketch when no
// peer has data for that epoch. For additive designs the result is
// recorded as sent; idempotent per (point, k).
func (c *Center[S]) EnhancementFor(point int, k int64) (S, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero S
	proto, ok := c.protos[point]
	if !ok {
		return zero, fmt.Errorf("core: unknown %s point %d", c.design, point)
	}
	if c.additive {
		if sent, ok := c.sentEnh[point][k]; ok {
			return sent.Clone(), nil
		}
	}
	var joined S
	for id, per := range c.uploads {
		d, ok := per[k-1]
		if id == point || !ok {
			continue
		}
		e, err := d.ExpandTo(c.wMax)
		if err != nil {
			return zero, fmt.Errorf("core: expand point %d: %w", id, err)
		}
		if IsNil(joined) {
			joined = e
			continue
		}
		if err := joined.Merge(e); err != nil {
			return zero, fmt.Errorf("core: spatial join point %d: %w", id, err)
		}
	}
	if IsNil(joined) {
		return zero, nil
	}
	out, err := joined.CompressTo(proto.Width())
	if err != nil {
		return zero, err
	}
	if c.additive {
		c.sentEnh[point][k] = out.Clone()
	}
	return out, nil
}
