// The replay cache is the read-side complement of the epoch log: where
// the log makes retrospective T-queries possible, the cache makes them
// cheap. It holds two tiers of materialized work, both keyed by the
// center's topology generation so a weight change can never mix shapes:
//
//   - per-epoch partials: the spatial join of every retained cell of one
//     epoch, expanded to the maximum width. Because ExpandTo is
//     positional replication and every backend's Merge is element-wise
//     (register max, counter add), expand-then-merge commutes with
//     merge-then-expand and merge order never changes a register bit —
//     so a window answer assembled from cached partials is bit-identical
//     to the from-scratch replay. A warm QueryAt reads only the flow's
//     cells in each cached partial (EstimateUnion) and copies no sketch;
//     a sliding QueryRange pays one cold epoch per step.
//   - window memos: the final (estimate, coverage) of a whole (flow,
//     window) query, making an exactly-repeated query O(1).
//
// Invalidation is by epoch span: compaction eviction (via
// durable.LogConfig.OnEvict) and late appends both drop every partial
// and memo touching the span, so the cache can never serve an epoch the
// store no longer holds, nor a stale partial missing a backfilled cell.
// Per-epoch version counters close the insert race: a query snapshots an
// epoch's version before reading cells, and the insert is discarded if
// the version moved. The partial tier is bounded by a byte budget with
// LRU eviction; the memo tier by an entry cap.

package core

import (
	"container/list"
	"sync"
)

// replayMemoCap bounds the window-memo tier; partials dominate the byte
// budget, memos are 3 words each.
const replayMemoCap = 1024

// ReplayCacheStats is a point-in-time snapshot for health endpoints.
type ReplayCacheStats struct {
	// Hits/Misses count per-epoch partial lookups; WindowHits counts
	// whole-answer memo hits (a memo hit skips the partial tier
	// entirely).
	Hits       uint64
	Misses     uint64
	WindowHits uint64
	// Evictions counts partials dropped by the byte budget;
	// Invalidations counts invalidation calls (compaction or append).
	Evictions     uint64
	Invalidations uint64
	Bytes         int64
	Entries       int
	Budget        int64
}

type partialKey struct {
	epoch int64
	gen   uint64
}

type partialEntry[S Sketch[S]] struct {
	key partialKey
	// sk is the epoch's spatial join at wMax; have is false for a
	// negative entry (epoch retained no cells when computed).
	sk     S
	have   bool
	merged int // Σ point weights present in the epoch (coverage share)
	bytes  int64
	elem   *list.Element
}

type windowKey struct {
	flow        uint64
	first, last int64
	gen         uint64
}

type windowAnswer struct {
	est float64
	cov Coverage
}

// ReplayCache caches historical-replay work for one Center. All methods
// are safe for concurrent use. Cached sketches are shared read-only:
// lookupPartial returns the cached object itself, which callers must
// never write.
type ReplayCache[S Sketch[S]] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[partialKey]*partialEntry[S]
	lru     *list.List // front = most recently used
	memo    map[windowKey]windowAnswer

	// Epoch versions: ver(e) = verBase + verEpoch[e]. Invalidating a
	// narrow span bumps per-epoch counters; a huge span (or an oversized
	// map) bumps verBase and clears the map, which conservatively ages
	// every epoch at once.
	verBase  uint64
	verEpoch map[int64]uint64

	hits, misses, windowHits uint64
	evictions, invalidations uint64
}

// NewReplayCache creates a cache bounded to budgetBytes of decoded
// partials (plus the fixed-cap memo tier). Each partial is charged 64 bytes
// plus MemoryBits()/8 of its sketch at the maximum width, so a budget of k
// times that figure holds exactly k partials.
func NewReplayCache[S Sketch[S]](budgetBytes int64) *ReplayCache[S] {
	return &ReplayCache[S]{
		budget:   budgetBytes,
		entries:  make(map[partialKey]*partialEntry[S]),
		lru:      list.New(),
		memo:     make(map[windowKey]windowAnswer),
		verEpoch: make(map[int64]uint64),
	}
}

func (rc *ReplayCache[S]) verLocked(e int64) uint64 { return rc.verBase + rc.verEpoch[e] }

// version returns epoch e's current invalidation version; a query
// snapshots it before computing a partial so insertPartial can detect a
// racing invalidation.
func (rc *ReplayCache[S]) version(e int64) uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.verLocked(e)
}

// versionSum sums versions over [first, last]. Versions only grow, so an
// unchanged sum proves no epoch in the span was invalidated in between.
func (rc *ReplayCache[S]) versionSum(first, last int64) uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.versionSumLocked(first, last)
}

// versionSumLocked costs min(span, per-epoch counters) steps, so a range
// query far wider than the retained history sums in bounded time.
func (rc *ReplayCache[S]) versionSumLocked(first, last int64) uint64 {
	span := uint64(last - first + 1)
	s := rc.verBase * span
	if span <= uint64(len(rc.verEpoch)) {
		for e := first; e <= last; e++ {
			s += rc.verEpoch[e]
		}
		return s
	}
	for e, v := range rc.verEpoch {
		if e >= first && e <= last {
			s += v
		}
	}
	return s
}

// lookupPartial returns the cached partial for (epoch, gen). ok reports
// a cache hit; have distinguishes a real partial from a cached
// "epoch holds no cells". The returned sketch is shared — read-only.
func (rc *ReplayCache[S]) lookupPartial(epoch int64, gen uint64) (sk S, merged int, have, ok bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ent, found := rc.entries[partialKey{epoch, gen}]
	if !found {
		rc.misses++
		return sk, 0, false, false
	}
	rc.hits++
	rc.lru.MoveToFront(ent.elem)
	return ent.sk, ent.merged, ent.have, true
}

// insertPartial publishes a freshly computed partial, unless epoch's
// version moved past ver since the caller snapshotted it (a concurrent
// append or eviction made the computation stale). Once inserted the
// sketch is shared and must no longer be written by the caller.
func (rc *ReplayCache[S]) insertPartial(epoch int64, gen, ver uint64, sk S, have bool, merged int, bytes int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.verLocked(epoch) != ver {
		return
	}
	key := partialKey{epoch, gen}
	if _, ok := rc.entries[key]; ok {
		// Another query raced us here; keep theirs.
		return
	}
	ent := &partialEntry[S]{key: key, sk: sk, have: have, merged: merged, bytes: bytes}
	ent.elem = rc.lru.PushFront(ent)
	rc.entries[key] = ent
	rc.bytes += bytes
	for rc.bytes > rc.budget && rc.lru.Len() > 0 {
		back := rc.lru.Back()
		rc.removeLocked(back.Value.(*partialEntry[S]))
		rc.evictions++
	}
}

func (rc *ReplayCache[S]) removeLocked(ent *partialEntry[S]) {
	rc.lru.Remove(ent.elem)
	delete(rc.entries, ent.key)
	rc.bytes -= ent.bytes
}

// lookupWindow returns a memoized whole-window answer.
func (rc *ReplayCache[S]) lookupWindow(flow uint64, first, last int64, gen uint64) (windowAnswer, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ans, ok := rc.memo[windowKey{flow, first, last, gen}]
	if ok {
		rc.windowHits++
	}
	return ans, ok
}

// insertWindow memoizes a window answer, unless versionSum(first, last)
// moved past verSum since the query started.
func (rc *ReplayCache[S]) insertWindow(k windowKey, ans windowAnswer, verSum uint64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.versionSumLocked(k.first, k.last) != verSum {
		return
	}
	if len(rc.memo) >= replayMemoCap {
		for old := range rc.memo { // drop an arbitrary entry
			delete(rc.memo, old)
			break
		}
	}
	rc.memo[k] = ans
}

// InvalidateEpochs drops every partial and window memo touching the
// inclusive epoch span [min, max] and ages the span's versions, so
// in-flight computations over it are discarded instead of published.
// Compaction eviction and (late) appends both route here.
func (rc *ReplayCache[S]) InvalidateEpochs(min, max int64) {
	if max < min {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.invalidations++
	if span := max - min + 1; span > 4096 || len(rc.verEpoch) > 65536 {
		rc.verBase++
		clear(rc.verEpoch)
	} else {
		for e := min; e <= max; e++ {
			rc.verEpoch[e]++
		}
	}
	for key, ent := range rc.entries {
		if key.epoch >= min && key.epoch <= max {
			rc.removeLocked(ent)
		}
	}
	for k := range rc.memo {
		if k.first <= max && min <= k.last {
			delete(rc.memo, k)
		}
	}
}

// Reset drops everything (partials, memos, versions) and keeps the
// budget. Benchmarks use it to measure the cold path.
func (rc *ReplayCache[S]) Reset() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	clear(rc.entries)
	rc.lru.Init()
	clear(rc.memo)
	rc.verBase++
	clear(rc.verEpoch)
	rc.bytes = 0
}

// Stats snapshots the cache counters.
func (rc *ReplayCache[S]) Stats() ReplayCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReplayCacheStats{
		Hits:          rc.hits,
		Misses:        rc.misses,
		WindowHits:    rc.windowHits,
		Evictions:     rc.evictions,
		Invalidations: rc.invalidations,
		Bytes:         rc.bytes,
		Entries:       len(rc.entries),
		Budget:        rc.budget,
	}
}
