package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Retrospective T-queries: replaying the eq. (5) spatio-temporal join
// over past epochs from a HistorySource (in practice the durable epoch
// log) instead of the live window. The replay runs the same algebra the
// live center runs over canonical sketch encodings, so a fully-retained
// window reproduces the live answer bit for bit; missing cells (evicted
// by retention, or lost to faults before they ever reached the center)
// are skipped and reported as reduced Coverage, never an error.
//
// The join is assembled epoch-by-epoch rather than point-by-point: each
// epoch's cells are merged at their native widths, expanded to the
// maximum width and spatially joined into one per-epoch partial, and the
// window answer is the union estimate over its epochs' partials
// (EstimateUnion), which reads only the flow's registers or counters in
// each partial and never materializes the window. ExpandTo is positional
// replication and every backend's Merge is element-wise (register max /
// integer counter add), so this regrouping is exactly the live answer's
// register image — and it is what makes the partials cacheable
// (ReplayCache) and the epochs independently computable
// (replayWorkers-bounded parallelism for cold windows).

// HistorySource yields stored per-epoch measurements for replay: in
// practice the transport's adapter over the durable epoch log. Sources
// must tolerate concurrent readers: a cold range replay fans epochs
// across a worker pool.
type HistorySource[S Sketch[S]] interface {
	// Span reports the inclusive epoch range the source retains (ok=false
	// when it holds nothing). The replay visits only the requested
	// epochs inside it, so a query's time and memory follow the retained
	// history rather than the requested range.
	Span() (first, last int64, ok bool)
	// Held reports, for each epoch of [first, last], the ids among the
	// sorted points whose cell the source holds (held[i] for epoch
	// first+i, sorted): the coverage signal, and the ids every stored
	// partial is checked against.
	Held(first, last int64, points []int) [][]int
	// EpochPartial returns epoch's stored partial — the spatial join at
	// the maximum width of the cells of held — when the source keeps one
	// that joined exactly held; ok=false sends the replay to the cells.
	// The sketch is owned by the caller.
	EpochPartial(epoch int64, held []int) (sk S, ok bool, err error)
	EpochSource[S]
}

// EpochSource yields one epoch's cells: EpochCells visits every cell the
// source retains for epoch across the given points, in any order. The
// sketch passed to visit is borrowed — valid only for the duration of the
// call; the join clones or merges out of it immediately. The log adapter
// reads an epoch in one batched pass (durable.Log.GetEpoch); the live
// center serves its window store (liveSource).
type EpochSource[S Sketch[S]] interface {
	EpochCells(epoch int64, points []int, visit func(point int, sk S) error) error
}

// replayWorkers bounds the per-query worker pool replaying cold epochs.
const replayWorkers = 8

// QueryAtFrom replays the networkwide T-query answer as of epoch k: the
// join over the same window the live aggregate pushed during k covered
// (epochs k-n+2 .. k-1). Over a fully-retained window the estimate is
// bit-identical to the live answer recorded at k (QueryWindowLive).
func (c *Center[S]) QueryAtFrom(f uint64, k int64, src HistorySource[S]) (float64, Coverage, error) {
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return 0, Coverage{}, fmt.Errorf("core: epoch %d has no completed window", k)
	}
	return c.queryEpochsFrom(f, first, last, src)
}

// QueryRangeFrom replays the join over an arbitrary epoch range [from,
// to] — the "any past window" T-query, decoupled from the live window
// length n.
func (c *Center[S]) QueryRangeFrom(f uint64, from, to int64, src HistorySource[S]) (float64, Coverage, error) {
	if from < 1 {
		from = 1
	}
	if to < from {
		return 0, Coverage{}, fmt.Errorf("core: empty epoch range [%d, %d]", from, to)
	}
	return c.queryEpochsFrom(f, from, to, src)
}

// epochPartial is one epoch's spatial join at the maximum width and the
// sorted ids it joined. have is false for an epoch with no cells.
type epochPartial[S Sketch[S]] struct {
	sk   S
	have bool
	ids  []int
}

// computeEpochPartial joins every cell of epoch e across ids: cells merge
// at their native widths first, then each width group expands once to
// wMax and spatially joins — fewer expansions, same register bits.
func computeEpochPartial[S Sketch[S]](e int64, ids []int, wMax int, src EpochSource[S]) (epochPartial[S], error) {
	var p epochPartial[S]
	p.ids = make([]int, 0, len(ids))
	var groups map[int]S
	var order []int
	add := func(id int, cell S) error {
		p.ids = append(p.ids, id)
		w := cell.Width()
		if g, ok := groups[w]; ok {
			if err := g.Merge(cell); err != nil {
				return fmt.Errorf("core: history temporal join point %d epoch %d: %w", id, e, err)
			}
			return nil
		}
		if groups == nil {
			groups = make(map[int]S, 2)
		}
		groups[w] = cell.Clone()
		order = append(order, w)
		return nil
	}
	if err := src.EpochCells(e, ids, add); err != nil {
		return p, fmt.Errorf("core: history epoch %d: %w", e, err)
	}
	slices.Sort(p.ids)
	for _, w := range order {
		// Every group is a clone, so one already at wMax joins as it is.
		ex := groups[w]
		if w != wMax {
			var err error
			if ex, err = ex.ExpandTo(wMax); err != nil {
				return p, fmt.Errorf("core: history expand epoch %d width %d: %w", e, w, err)
			}
		}
		if !p.have {
			p.sk = ex
			p.have = true
			continue
		}
		if err := p.sk.Merge(ex); err != nil {
			return p, fmt.Errorf("core: history spatial join epoch %d: %w", e, err)
		}
	}
	return p, nil
}

// queryEpochsFrom is the shared replay: snapshot the cluster shape
// (children, weights, maximum width) under the lock, then assemble the
// window from per-epoch partials lock-free so long-range queries never
// stall ingest. One probe of src gives every retained epoch's held ids;
// a cached partial that joined exactly those ids is an in-memory read,
// and the cold epochs fan out across a bounded worker pool. Coverage
// expects every requested epoch and counts the ids each partial joined
// under the current weights.
func (c *Center[S]) queryEpochsFrom(f uint64, first, last int64, src HistorySource[S]) (float64, Coverage, error) {
	c.mu.Lock()
	ids := c.ids // sorted, fixed at construction
	weights := make(map[int]int, len(ids))
	for _, id := range ids {
		weights[id] = c.weightLocked(id)
	}
	wMax := c.wMax
	cache := c.replay
	c.mu.Unlock()

	weight := 0
	for _, id := range ids {
		weight += weights[id]
	}
	span := last - first + 1
	if weight > 0 && span > math.MaxInt/int64(weight) {
		return 0, Coverage{}, fmt.Errorf("core: epoch range [%d, %d] overflows the coverage count", first, last)
	}
	cov := Coverage{EpochsExpected: weight * int(span)}

	// Epochs outside the retained span hold no cells: skip them.
	lo, hi, ok := src.Span()
	if !ok {
		return 0, cov, nil
	}
	vFirst, vLast := max(first, lo), min(last, hi)
	if vFirst > vLast {
		return 0, cov, nil
	}
	held := src.Held(vFirst, vLast, ids)
	slots := make([]epochPartial[S], len(held))
	var cold []int
	for i, h := range held {
		if len(h) == 0 {
			continue
		}
		if cache != nil {
			if sk, ok := cache.lookupPartial(vFirst+int64(i), h); ok {
				slots[i] = epochPartial[S]{sk: sk, have: true, ids: h}
				continue
			}
		}
		cold = append(cold, i)
	}

	workers := min(len(cold), runtime.GOMAXPROCS(0), replayWorkers)
	var firstErr error
	if workers <= 1 {
		for _, i := range cold {
			p, err := replayEpoch(vFirst+int64(i), held[i], wMax, src)
			if err != nil {
				return 0, cov, err
			}
			slots[i] = p
		}
	} else {
		var wg sync.WaitGroup
		var errMu sync.Mutex
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					p, err := replayEpoch(vFirst+int64(i), held[i], wMax, src)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						continue
					}
					slots[i] = p
				}
			}()
		}
		for _, i := range cold {
			work <- i
		}
		close(work)
		wg.Wait()
		if firstErr != nil {
			return 0, cov, firstErr
		}
	}

	// Publish cold partials. Once inserted the sketch is shared, so
	// everything below only reads it.
	if cache != nil {
		for _, i := range cold {
			if p := slots[i]; p.have {
				// 64 bytes of entry overhead plus the sketch's footprint under
				// the paper's memory model (see NewReplayCache); no allocation.
				cache.insertPartial(vFirst+int64(i), p.ids, p.sk, 64+int64(p.sk.MemoryBits()/8))
			}
		}
	}

	// The window answer reads the flow's cells across every partial
	// (EstimateUnion): bit-identical to merging them, with no window-sized
	// sketch. The shape check Merge would make stays.
	parts := make([]S, 0, len(slots))
	for i, p := range slots {
		if !p.have {
			continue
		}
		for _, id := range p.ids {
			cov.EpochsMerged += weights[id]
		}
		if len(parts) > 0 && (p.sk.Width() != parts[0].Width() || !parts[0].Compatible(p.sk)) {
			return 0, cov, fmt.Errorf("core: history window join epoch %d: partial of width %d does not join width %d",
				vFirst+int64(i), p.sk.Width(), parts[0].Width())
		}
		parts = append(parts, p.sk)
	}
	if len(parts) == 0 {
		return 0, cov, nil
	}
	return parts[0].EstimateUnion(f, parts[1:]), cov, nil
}

// replayEpoch builds epoch e's partial over held, the sorted ids whose
// cells src holds: from src's stored partial when it joined exactly
// those ids, and otherwise from the cells.
func replayEpoch[S Sketch[S]](e int64, held []int, wMax int, src HistorySource[S]) (epochPartial[S], error) {
	sk, ok, err := src.EpochPartial(e, held)
	if err != nil {
		return epochPartial[S]{}, fmt.Errorf("core: history partial epoch %d: %w", e, err)
	}
	if ok {
		return epochPartial[S]{sk: sk, have: true, ids: held}, nil
	}
	return computeEpochPartial(e, held, wMax, src)
}

// QueryWindowLive answers the networkwide T-query for flow f as of epoch
// k from the live window — the join the center would push during k,
// estimated at the maximum width. This is the "live answer recorded at
// epoch k" the historical replay's exactness contract is defined
// against; callers snapshot it per epoch and later compare QueryAtFrom.
func (c *Center[S]) QueryWindowLive(f uint64, k int64) (float64, Coverage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, _, ok := aggregateSpan(k, c.windowN); !ok {
		return 0, Coverage{}, fmt.Errorf("core: epoch %d has no completed window", k)
	}
	m, err := c.roundLocked(k)
	if err != nil {
		return 0, Coverage{}, err
	}
	if IsNil(m.joined) {
		return 0, m.cov, nil
	}
	return m.joined.EstimateUnion(f, nil), m.cov, nil
}

// MarshalUpload encodes the stored single-epoch measurement for (point,
// epoch) — the uploaded sketch for max-merge designs, the recovered
// delta for additive ones — under the center lock. ok is false when the
// center holds no such cell (not yet uploaded, or already trimmed).
// This is the epoch log's feed: enc must be the canonical encoder so the
// logged bytes are deterministic.
func (c *Center[S]) MarshalUpload(point int, epoch int64, enc func(S) ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sk, ok := c.uploads[point][epoch]
	if !ok {
		return nil, false, nil
	}
	b, err := enc(sk)
	if err != nil {
		return nil, false, fmt.Errorf("core: marshal upload (%d, %d): %w", point, epoch, err)
	}
	return b, true, nil
}

// MarshalPartial encodes epoch's merged partial — the spatial join at
// the maximum width the round pushed — and returns the sorted ids it
// joined, building the partial if the window no longer memoizes it. ok is
// false when the center holds no cell of epoch. A built partial is never
// mutated, so only the lookup holds the center lock. This is the epoch
// log's partial-cell feed (HistorySource.EpochPartial).
func (c *Center[S]) MarshalPartial(epoch int64, enc func(S) ([]byte, error)) ([]byte, []int, bool, error) {
	c.mu.Lock()
	p, err := c.partialLocked(epoch)
	c.mu.Unlock()
	if err != nil || !p.have {
		return nil, nil, false, err
	}
	b, err := enc(p.sk)
	if err != nil {
		return nil, nil, false, fmt.Errorf("core: marshal partial epoch %d: %w", epoch, err)
	}
	return b, p.ids, true, nil
}
