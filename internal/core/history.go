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

// HistorySource yields stored (point, epoch) measurements for replay.
// Cell returns ok=false for a cell the source does not hold — the
// coverage signal. A returned sketch is owned by the caller (the replay
// merges into it). Sources must tolerate concurrent readers: a cold
// range replay fans epochs across a worker pool.
type HistorySource[S Sketch[S]] interface {
	Cell(point int, epoch int64) (S, bool, error)
}

// EpochSource is an optional batched fast path a HistorySource may
// implement: EpochCells yields every cell the source retains for one
// epoch across the given points, in any order. The sketch passed to
// visit is borrowed decode scratch — valid only for the duration of the
// call; the replay clones or merges out of it immediately. Implemented
// by the transport's log adapter over durable.Log.GetEpoch, turning a
// window replay's per-cell lookup/read/alloc into one sequential pass
// per segment.
type EpochSource[S Sketch[S]] interface {
	EpochCells(epoch int64, points []int, visit func(point int, sk S) error) error
}

// SpanSource is an optional HistorySource extension: Span reports the
// inclusive epoch range the source retains (ok=false when it holds
// nothing). The replay visits only the requested epochs inside it, so a
// query's time and memory follow the retained history rather than the
// requested range. Implemented by the transport's log adapter over
// durable.Log.Span.
type SpanSource interface {
	Span() (first, last int64, ok bool)
}

// PartialSource is an optional HistorySource fast path: EpochPartial
// returns epoch's merged partial — the spatial join at the maximum width
// that the source's cells for points would give — and the sorted ids it
// joined. ok is false when the source holds no partial, or none that
// joins exactly the points whose cells it still holds; the replay then
// joins the cells. The sketch is owned by the caller. Implemented by the
// transport's log adapter over the partial cell the center appends when
// an epoch's round closes (Center.MarshalPartial).
type PartialSource[S Sketch[S]] interface {
	EpochPartial(epoch int64, points []int) (sk S, ids []int, ok bool, err error)
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

// epochPartial is one epoch's spatial join at the maximum width, plus
// its coverage share and the sorted ids it joined. have is false for an
// epoch with no retained cells.
type epochPartial[S Sketch[S]] struct {
	sk     S
	have   bool
	merged int
	ids    []int
}

// computeEpochPartial joins every retained cell of epoch e across ids:
// cells merge at their native widths first, then each width group
// expands once to wMax and spatially joins — fewer expansions, same
// register bits. It takes a source's stored partial when src implements
// PartialSource and holds a valid one, and otherwise prefers the batched
// EpochSource pass.
func computeEpochPartial[S Sketch[S]](e int64, ids []int, weights map[int]int, wMax int, src HistorySource[S]) (epochPartial[S], error) {
	var p epochPartial[S]
	if ps, ok := src.(PartialSource[S]); ok {
		sk, joined, ok, err := ps.EpochPartial(e, ids)
		if err != nil {
			return p, fmt.Errorf("core: history partial epoch %d: %w", e, err)
		}
		if ok {
			p = epochPartial[S]{sk: sk, have: true, ids: joined}
			for _, id := range joined {
				p.merged += weights[id]
			}
			return p, nil
		}
	}
	p.ids = make([]int, 0, len(ids))
	var groups map[int]S
	var order []int
	add := func(id int, cell S, owned bool) error {
		p.merged += weights[id]
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
		if owned {
			groups[w] = cell
		} else {
			groups[w] = cell.Clone()
		}
		order = append(order, w)
		return nil
	}
	if es, ok := src.(EpochSource[S]); ok {
		err := es.EpochCells(e, ids, func(id int, cell S) error {
			return add(id, cell, false)
		})
		if err != nil {
			return p, fmt.Errorf("core: history epoch %d: %w", e, err)
		}
	} else {
		for _, id := range ids {
			cell, ok, err := src.Cell(id, e)
			if err != nil {
				return p, fmt.Errorf("core: history cell (%d, %d): %w", id, e, err)
			}
			if !ok {
				continue
			}
			if err := add(id, cell, true); err != nil {
				return p, err
			}
		}
	}
	slices.Sort(p.ids)
	for _, w := range order {
		// Every group is owned (cloned or handed over), so one already at
		// wMax joins as it is.
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
// (children, weights, maximum width, topology generation) under the
// lock, then assemble the window from per-epoch partials lock-free so
// long-range queries never stall ingest. With a replay cache attached,
// warm epochs are in-memory reads and only cold epochs touch src —
// those fan out across a bounded worker pool. Coverage expects every
// requested epoch; only the epochs src retains (SpanSource) are visited.
func (c *Center[S]) queryEpochsFrom(f uint64, first, last int64, src HistorySource[S]) (float64, Coverage, error) {
	c.mu.Lock()
	ids := c.ids // sorted, fixed at construction
	weights := make(map[int]int, len(ids))
	for _, id := range ids {
		weights[id] = c.weightLocked(id)
	}
	wMax := c.wMax
	gen := c.topoGen
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

	var verSum uint64
	if cache != nil {
		if ans, ok := cache.lookupWindow(f, first, last, gen); ok {
			return ans.est, ans.cov, nil
		}
		// Snapshot before touching partials: if any epoch in the window
		// is invalidated between here and insertWindow, the memo insert
		// is discarded.
		verSum = cache.versionSum(first, last)
	}

	// Epochs outside the retained span hold no cells: skip them.
	vFirst, vLast := first, last
	if ss, ok := src.(SpanSource); ok {
		lo, hi, ok := ss.Span()
		if !ok {
			return 0, cov, nil
		}
		vFirst, vLast = max(first, lo), min(last, hi)
		if vFirst > vLast {
			return 0, cov, nil
		}
	}

	type slot struct {
		p   epochPartial[S]
		ver uint64
	}
	slots := make([]slot, vLast-vFirst+1)
	var cold []int
	for i := range slots {
		e := vFirst + int64(i)
		if cache != nil {
			if sk, merged, have, ok := cache.lookupPartial(e, gen); ok {
				slots[i].p = epochPartial[S]{sk: sk, have: have, merged: merged}
				continue
			}
			slots[i].ver = cache.version(e)
		}
		cold = append(cold, i)
	}

	workers := len(cold)
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > replayWorkers {
		workers = replayWorkers
	}
	var firstErr error
	if workers <= 1 {
		for _, i := range cold {
			p, err := computeEpochPartial(vFirst+int64(i), ids, weights, wMax, src)
			if err != nil {
				return 0, cov, err
			}
			slots[i].p = p
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
					p, err := computeEpochPartial(vFirst+int64(i), ids, weights, wMax, src)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						continue
					}
					slots[i].p = p
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
			p := slots[i].p
			// 64 bytes of entry overhead plus the sketch's footprint under
			// the paper's memory model (see NewReplayCache); no allocation.
			cost := int64(64)
			if p.have {
				cost += int64(p.sk.MemoryBits() / 8)
			}
			cache.insertPartial(vFirst+int64(i), gen, slots[i].ver, p.sk, p.have, p.merged, cost)
		}
	}

	// The window answer reads the flow's cells across every partial
	// (EstimateUnion): bit-identical to merging them, with no window-sized
	// sketch. The shape check Merge would make stays.
	parts := make([]S, 0, len(slots))
	for i := range slots {
		p := slots[i].p
		cov.EpochsMerged += p.merged
		if !p.have {
			continue
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
	est := parts[0].EstimateUnion(f, parts[1:])
	if cache != nil {
		cache.insertWindow(windowKey{f, first, last, gen}, windowAnswer{est, cov}, verSum)
	}
	return est, cov, nil
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
// log's partial-cell feed (PartialSource).
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
