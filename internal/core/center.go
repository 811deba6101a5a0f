package core

import (
	"errors"
	"fmt"
	"math"
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
// The join is built once per round, not once per destination point, and
// mostly before the barrier: each accepted cell joins its epoch's round
// as it arrives (epochMerge, the merger a relay runs too); a read freezes
// the round's partial and a later cell thaws it into a clone. Epoch k's
// first cell merges round k+1's older n-3 partials into a prefix, so the
// barrier merges part[k] alone. Each window is compressed once per point
// width (a max-merge design's wMax points share it). A cell drops every
// round memo and prefix whose span holds it; trimming drops all of it
// with the uploads.
type Center[S Sketch[S]] struct {
	// epochMerge holds the children, their clocks and weights, the door,
	// and part: part[e] is epoch e's round, the join of its stored cells
	// — open while cells arrive, frozen once read — and its barrier.
	epochMerge[S]

	mode     Mode
	additive bool
	sub      func(dst, src S) error

	// uploads[point][epoch] is the single-epoch measurement: the uploaded
	// B sketch for a delta-mode max design, the recovered delta for the
	// size design. Old epochs are trimmed once outside every window.
	uploads map[int]map[int64]S
	// minHeld is at most the lowest epoch of any cell the per-point maps
	// (uploads, sentAgg, sentEnh) hold. A trim drops nothing unless its
	// floor passes it, so a round's receives walk the maps once per floor
	// step, not once each.
	minHeld int64
	// pre joins round preRound's window but its newest epoch; nil once the
	// round takes it, a cell inside its span drops it, or it is empty.
	pre      S
	preRound int64
	// rounds[k] memoizes the window aggregate pushed during k.
	rounds map[int64]*roundMemo[S]

	// sentAgg[point][epoch] is the aggregate pushed to point during that
	// epoch, exactly as sent (customized width); additive designs need it
	// to invert cumulative uploads and to re-push idempotently. Points of
	// one width share the round memo's sketch, which is never mutated.
	sentAgg map[int]map[int64]S
	// sentEnh[point][epoch] is the enhancement pushed during that epoch.
	sentEnh map[int]map[int64]S
	// chainBroken[point] marks a cumulative-mode point whose recovery
	// chain lost an epoch (upload gap): the inversion needs the previous
	// epoch's delta, so post-gap uploads are unusable until the point
	// sends a rebase upload (see UploadMeta.Rebase).
	chainBroken map[int]bool

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
	c := &Center[S]{
		minHeld:  math.MaxInt64,
		mode:     cfg.Mode,
		additive: cfg.Additive,
		sub:      cfg.Sub,
		uploads:  make(map[int]map[int64]S, len(protos)),
	}
	if err := c.init(windowN, protos, nil, cfg); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeCumulative && cfg.Sub == nil {
		return nil, fmt.Errorf("core: cumulative mode requires a subtraction operator")
	}
	c.resetJoinLocked()
	if cfg.Additive {
		c.sentAgg = make(map[int]map[int64]S, len(protos))
		c.sentEnh = make(map[int]map[int64]S, len(protos))
		c.chainBroken = make(map[int]bool, len(protos))
	}
	for _, id := range c.ids {
		c.uploads[id] = make(map[int64]S)
		if cfg.Additive {
			c.sentAgg[id] = make(map[int64]S)
			c.sentEnh[id] = make(map[int64]S)
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
	weight = max(weight, 1)
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
	_, err := c.ReceiveRound(point, epoch, upload, meta)
	return err
}

// ReceiveRound is ReceiveMeta that also reports whether the upload
// completed its epoch's round: whether it made every child a reporter of
// the epoch. A stored upload reports, and so does a gap-dropped one
// (ErrUploadGap), whose epoch the point's chain has moved past; a
// duplicate or a refused upload does not. One upload completes a round,
// so a transport pushes each round once.
func (c *Center[S]) ReceiveRound(point int, epoch int64, upload S, meta UploadMeta) (complete bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	err = c.receiveLocked(point, epoch, upload, meta)
	if err != nil && !errors.Is(err, ErrUploadGap) {
		return false, err
	}
	complete = c.completeLocked(epoch)
	c.trimLocked(c.lastEpoch[point])
	return complete, err
}

// receiveLocked is ReceiveMeta's body before the trim, under the lock.
func (c *Center[S]) receiveLocked(point int, epoch int64, upload S, meta UploadMeta) error {
	last, err := c.admit(point, epoch, upload)
	if err != nil {
		return err
	}
	per := c.uploads[point]
	if !c.additive {
		if _, dup := per[epoch]; dup {
			return ErrDuplicateUpload
		}
		// Stored without cloning: re-merging a max sketch is idempotent, so
		// the center may alias the caller's (ownership-transferred) upload.
		return c.acceptLocked(point, epoch, upload)
	}
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
			// the sequence position (admit moved it), wait for a rebase.
			c.chainBroken[point] = true
			j := c.round(epoch)
			j.bare = append(j.bare, point)
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
	return c.acceptLocked(point, epoch, delta)
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

// trimLocked drops measurements (and, for additive designs, sent pushes)
// too old to contribute to any future join.
func (c *Center[S]) trimLocked(latest int64) {
	floor := latest - int64(c.windowN) - 1
	if floor > c.minHeld {
		c.minHeld = math.MaxInt64
		trim := func(maps map[int]map[int64]S) {
			for _, per := range maps {
				for e := range per {
					if e < floor {
						delete(per, e)
					} else {
						c.minHeld = min(c.minHeld, e)
					}
				}
			}
		}
		trim(c.uploads)
		if c.additive {
			trim(c.sentAgg)
			trim(c.sentEnh)
		}
	}
	c.keepLocked(floor, math.MaxInt64)
	for k := range c.rounds {
		if first, _, _ := aggregateSpan(k, c.windowN); first < floor {
			delete(c.rounds, k)
		}
	}
	if first, _, ok := aggregateSpan(c.preRound, c.windowN); ok && first < floor {
		c.pre = *new(S)
	}
}

// holdLocked stores sk as per[e], lowering minHeld to e.
func (c *Center[S]) holdLocked(per map[int64]S, e int64, sk S) {
	per[e] = sk
	c.minHeld = min(c.minHeld, e)
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

// resetJoinLocked drops every round, the prefix and every round memo.
func (c *Center[S]) resetJoinLocked() {
	c.part = make(map[int64]*epochJoin[S])
	c.pre, c.preRound = *new(S), 0
	c.rounds = make(map[int64]*roundMemo[S])
}

// acceptLocked joins point's accepted cell into epoch e's round, stores
// it, and drops what the cell stales: every round memo and the prefix
// whose span contains e.
func (c *Center[S]) acceptLocked(point int, e int64, cell S) error {
	for k := range c.rounds {
		if first, last, ok := aggregateSpan(k, c.windowN); ok && first <= e && e <= last {
			delete(c.rounds, k)
		}
	}
	if first, last, _ := aggregateSpan(c.preRound, c.windowN); first <= e && e < last {
		c.pre = *new(S)
	}
	first, err := c.joinLocked(point, e, cell)
	if err != nil {
		return err
	}
	c.holdLocked(c.uploads[point], e, cell)
	// The first cell of a new epoch e builds round e+1's prefix, from
	// partials no longer taking cells: reading one that is would freeze it
	// early and drop the prefix with it.
	if !first || e+1 <= c.preRound {
		return nil
	}
	lo, hi, _ := aggregateSpan(e+1, c.windowN)
	for older := lo; older < hi; older++ {
		if j, ok := c.part[older]; ok && !j.frozen {
			return nil
		}
	}
	if sk, err := c.joinPartialsLocked(*new(S), lo, hi-1); err == nil {
		c.pre, c.preRound = sk, e+1
	}
	return nil
}

// partialLocked returns epoch e's merged partial, frozen. An epoch with
// no round holds no cell.
func (c *Center[S]) partialLocked(e int64) (epochPartial[S], error) {
	j, ok := c.part[e]
	if !ok {
		return epochPartial[S]{}, nil
	}
	return j.read(e, c.wMax)
}

// joinPartialsLocked merges the partials of epochs from .. to into acc,
// which starts as a clone of the first one with data when nil.
func (c *Center[S]) joinPartialsLocked(acc S, from, to int64) (S, error) {
	for e := from; e <= to; e++ {
		p, err := c.partialLocked(e)
		if err != nil {
			return acc, err
		}
		if !p.have {
			continue
		}
		if IsNil(acc) {
			acc = p.sk.Clone()
		} else if err := acc.Merge(p.sk); err != nil {
			return acc, fmt.Errorf("core: window join epoch %d: %w", e, err)
		}
	}
	return acc, nil
}

// roundLocked returns the memoized window aggregate pushed during k (eq.
// (5): epochs k-n+2 .. k-1), joining it from per-epoch partials on first
// use: the newest one into the round's prefix when it is live.
func (c *Center[S]) roundLocked(k int64) (*roundMemo[S], error) {
	if m, ok := c.rounds[k]; ok {
		return m, nil
	}
	m := &roundMemo[S]{byWidth: make(map[int]S), cov: c.coverageLocked(k)}
	if first, last, ok := aggregateSpan(k, c.windowN); ok {
		if k == c.preRound && !IsNil(c.pre) {
			// The memo takes the prefix's sketch.
			m.joined, first, c.pre = c.pre, last, *new(S)
		}
		var err error
		if m.joined, err = c.joinPartialsLocked(m.joined, first, last); err != nil {
			return nil, err
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
		// A max fold onto the window's own width is the window itself. The
		// additive design's fold clamps a negative counter, so it copies.
		if w == c.wMax && !c.additive {
			out = m.joined
		} else if out, err = m.joined.CompressTo(w); err != nil {
			return zero, err
		}
		m.byWidth[w] = out
	}
	if c.additive {
		c.holdLocked(c.sentAgg[point], k, out)
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
	// The peers' cells join like a round, each width group expanded once.
	peers := &epochJoin[S]{}
	for _, id := range c.ids {
		if d, ok := c.uploads[id][k-1]; ok && id != point {
			if err := peers.add(k-1, id, d); err != nil {
				return zero, err
			}
		}
	}
	joined, ok, err := peers.join(k-1, c.wMax)
	if err != nil || !ok {
		return zero, err
	}
	out, err := joined.CompressTo(proto.Width())
	if err != nil {
		return zero, err
	}
	if c.additive {
		c.holdLocked(c.sentEnh[point], k, out.Clone())
	}
	return out, nil
}
