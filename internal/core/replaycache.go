// The replay cache is the read-side complement of the epoch log: where
// the log makes retrospective T-queries possible, the cache makes them
// cheap. It holds per-epoch partials: the spatial join of one epoch's
// cells at the maximum width, as a StoredPartial — the one the source
// gave (the log's partial cell, from which a query reads the flow's
// projection with one index jump) or the one the replay joined from the
// cells. Because ExpandTo is positional replication and every backend's
// Merge is element-wise (register max, counter add), expand-then-merge
// commutes with merge-then-expand and merge order never changes a
// register bit, so a window answer assembled from cached partials is
// bit-identical to the from-scratch replay. A warm QueryAt reads only the
// flow's cells in each cached partial (EstimateUnion over projections)
// and copies nothing larger than the flow's column; a sliding QueryRange
// pays one cold epoch per step.
//
// A cached partial checks itself, by the rule the log's own partial cell
// follows: it records the sorted ids it joined, and it is served only
// when they equal the ids the source holds for its epoch at query time.
// A logged (point, epoch) cell's bytes never change, so equal ids mean
// an equal join. A late or backfilled cell, a failed append and a
// compaction eviction each change the held ids and send the epoch down
// the cold path; coverage is counted from the ids under the current
// weights, so a weight change needs nothing either. Nothing outside the
// cache tells it that the store changed. Entries are bounded by a byte
// budget with LRU eviction; each is charged the bytes it holds.

package core

import (
	"container/list"
	"slices"
	"sync"
)

// ReplayCacheStats is a point-in-time snapshot for health endpoints.
type ReplayCacheStats struct {
	// Hits/Misses count per-epoch partial lookups; a stored partial
	// whose ids no longer match the source counts as a miss.
	Hits   uint64
	Misses uint64
	// Evictions counts partials dropped by the byte budget.
	Evictions uint64
	Bytes     int64
	Entries   int
	Budget    int64
}

type partialEntry[S Sketch[S]] struct {
	epoch int64
	ids   []int
	part  StoredPartial[S]
	bytes int64
	elem  *list.Element
}

// ReplayCache caches historical-replay partials for one Center. All
// methods are safe for concurrent use. Cached partials are shared
// read-only: lookup returns the cached partial itself.
type ReplayCache[S Sketch[S]] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[int64]*partialEntry[S]
	lru     *list.List // front = most recently used

	hits, misses, evictions uint64
}

// NewReplayCache creates a cache bounded to budgetBytes of partials. Each
// partial is charged what it holds: 64 bytes of entry, 8 per joined id,
// and its HeapBytes, so a budget of k times one partial's charge holds
// exactly k partials of that size.
func NewReplayCache[S Sketch[S]](budgetBytes int64) *ReplayCache[S] {
	return &ReplayCache[S]{
		budget:  budgetBytes,
		entries: make(map[int64]*partialEntry[S]),
		lru:     list.New(),
	}
}

// lookup returns epoch's cached partial if it joined exactly held, the
// sorted ids the source holds for the epoch now.
func (rc *ReplayCache[S]) lookup(epoch int64, held []int) (StoredPartial[S], bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ent, ok := rc.entries[epoch]
	if !ok || !slices.Equal(ent.ids, held) {
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.lru.MoveToFront(ent.elem)
	return ent.part, true
}

// partialEntryOverhead is the cache's fixed charge per partial.
const partialEntryOverhead = 64

// insert publishes epoch's partial over the sorted ids it joined,
// replacing any entry the epoch had. Once inserted the partial is shared
// and must no longer be written by the caller.
func (rc *ReplayCache[S]) insert(epoch int64, ids []int, part StoredPartial[S]) {
	bytes := int64(partialEntryOverhead + 8*len(ids) + part.HeapBytes())
	ent := &partialEntry[S]{epoch: epoch, ids: slices.Clone(ids), part: part, bytes: bytes}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if old, ok := rc.entries[epoch]; ok {
		rc.removeLocked(old)
	}
	ent.elem = rc.lru.PushFront(ent)
	rc.entries[epoch] = ent
	rc.bytes += bytes
	for rc.bytes > rc.budget && rc.lru.Len() > 0 {
		rc.removeLocked(rc.lru.Back().Value.(*partialEntry[S]))
		rc.evictions++
	}
}

func (rc *ReplayCache[S]) removeLocked(ent *partialEntry[S]) {
	rc.lru.Remove(ent.elem)
	delete(rc.entries, ent.epoch)
	rc.bytes -= ent.bytes
}

// Reset drops every partial and keeps the budget. Benchmarks use it to
// measure the cold path.
func (rc *ReplayCache[S]) Reset() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	clear(rc.entries)
	rc.lru.Init()
	rc.bytes = 0
}

// Stats snapshots the cache counters.
func (rc *ReplayCache[S]) Stats() ReplayCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReplayCacheStats{
		Hits:      rc.hits,
		Misses:    rc.misses,
		Evictions: rc.evictions,
		Bytes:     rc.bytes,
		Entries:   len(rc.entries),
		Budget:    rc.budget,
	}
}
