package core

import (
	"fmt"
	"maps"
	"math"
	"runtime"
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
// window answer is the union estimate over the flow's projections of its
// epochs' partials (Sketch.Project, EstimateUnion): only the flow's
// registers or counters of each partial are read (a StoredPartial may
// read them straight out of its stored encoding), and the window is never
// materialized. ExpandTo is positional replication and every backend's
// Merge is element-wise (register max / integer counter add), so this
// regrouping is exactly the live answer's register image — and it is
// what makes the partials cacheable (ReplayCache) and the epochs
// independently computable (replayWorkers-bounded parallelism for cold
// windows).

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
	// EpochPartial reads epoch's stored partial — the spatial join at the
	// maximum width of the cells of held — when the source keeps one that
	// joined exactly held and can read it; ok=false sends the replay to
	// the cells. The partial is the caller's from then on.
	EpochPartial(epoch int64, held []int) (p StoredPartial[S], ok bool, err error)
	EpochSource[S]
}

// EpochSource yields one epoch's cells: EpochCells visits every cell the
// source retains for epoch across the given points, in any order. The
// sketch passed to visit is borrowed — valid only for the duration of the
// call; the join clones or merges out of it immediately. The log adapter
// reads an epoch in one batched pass (durable.Log.GetEpoch).
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

// StoredPartial is one epoch's partial as the replay keeps it: read from
// the source (HistorySource.EpochPartial), or joined from the cells, and
// then cached (ReplayCache). It is never written once made, so readers
// share it.
type StoredPartial[S Sketch[S]] interface {
	// Project returns the partial's projection for flow f
	// (Sketch.Project).
	Project(f uint64) (S, error)
	// HeapBytes is the bytes the partial holds in memory; the replay
	// cache charges it.
	HeapBytes() int
}

// DecodedPartial is the StoredPartial of a decoded sketch sk: a partial
// joined from the cells, or one of a backend whose projection is the
// whole sketch (vHLL). A sketch not at the window's maximum width w does
// not project.
func DecodedPartial[S Sketch[S]](sk S, w int) StoredPartial[S] { return decodedPartial[S]{sk, w} }

type decodedPartial[S Sketch[S]] struct {
	sk S
	w  int
}

func (d decodedPartial[S]) Project(f uint64) (S, error) {
	if d.sk.Width() != d.w {
		var zero S
		return zero, fmt.Errorf("partial of width %d does not join width %d", d.sk.Width(), d.w)
	}
	return d.sk.Project(f), nil
}

func (d decodedPartial[S]) HeapBytes() int { return d.sk.HeapBytes() }

// computeEpochPartial joins every cell of epoch e across ids.
func computeEpochPartial[S Sketch[S]](e int64, ids []int, wMax int, src EpochSource[S]) (epochPartial[S], error) {
	j := &epochJoin[S]{epochPartial: epochPartial[S]{ids: make([]int, 0, len(ids))}}
	add := func(id int, cell S) error { return j.add(e, id, cell) }
	if err := src.EpochCells(e, ids, add); err != nil {
		return j.epochPartial, fmt.Errorf("core: history epoch %d: %w", e, err)
	}
	return j.read(e, wMax)
}

// queryEpochsFrom is the shared replay: snapshot the cluster shape
// (children, weights, maximum width) under the lock, then assemble the
// window from per-epoch partials lock-free so long-range queries never
// stall ingest. One probe of src gives every retained epoch's held ids;
// a cached partial that joined exactly those ids gives the flow's
// projection in memory, and the cold epochs' reads and projections fan
// out across a bounded worker pool. Coverage expects every requested
// epoch and counts the ids each partial joined under the current
// weights.
func (c *Center[S]) queryEpochsFrom(f uint64, first, last int64, src HistorySource[S]) (float64, Coverage, error) {
	c.mu.Lock()
	ids := c.ids                     // sorted, fixed at construction
	weights := maps.Clone(c.weights) // every child's, each >= 1
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
	slots := make([]windowSlot[S], len(held))
	var cold []int
	for i, h := range held {
		if len(h) == 0 {
			continue
		}
		if cache != nil {
			if p, ok := cache.lookup(vFirst+int64(i), h); ok {
				proj, err := p.Project(f)
				if err != nil {
					return 0, cov, fmt.Errorf("core: history window join epoch %d: %w", vFirst+int64(i), err)
				}
				slots[i] = windowSlot[S]{ids: h, proj: proj}
				continue
			}
		}
		cold = append(cold, i)
	}

	// Each cold epoch is one job on a bounded worker pool: it reads its
	// partial from the source, or joins the cells, and the flow's
	// projection of it.
	err := forEach(cold, func(i int) (err error) {
		slots[i], err = coldEpoch(vFirst+int64(i), held[i], f, wMax, src)
		return err
	})
	if err != nil {
		return 0, cov, err
	}

	// The window answer is one union estimate over the partials'
	// projections for f (EstimateUnion): bit-identical to merging the
	// partials, reading only the flow's cells of each. The shape check
	// Merge would make stays.
	parts := make([]S, 0, len(slots))
	for i, s := range slots {
		if len(s.ids) == 0 {
			continue
		}
		for _, id := range s.ids {
			cov.EpochsMerged += weights[id]
		}
		if len(parts) > 0 && (s.proj.Width() != parts[0].Width() || !parts[0].Compatible(s.proj)) {
			return 0, cov, fmt.Errorf("core: history window join epoch %d: partial does not join the window's other partials", vFirst+int64(i))
		}
		parts = append(parts, s.proj)
	}

	// Publish the cold partials, every one of which projected. Once
	// inserted a partial is shared and only read.
	if cache != nil {
		for _, i := range cold {
			if s := slots[i]; s.part != nil {
				cache.insert(vFirst+int64(i), s.ids, s.part)
			}
		}
	}
	if len(parts) == 0 {
		return 0, cov, nil
	}
	return parts[0].EstimateUnion(f, parts[1:]), cov, nil
}

// forEach runs fn for every job on a pool of at most replayWorkers
// goroutines, capped by GOMAXPROCS, and returns the first error.
func forEach(jobs []int, fn func(int) error) error {
	workers := min(len(jobs), runtime.GOMAXPROCS(0), replayWorkers)
	if workers <= 1 {
		for _, i := range jobs {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for _, i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	return firstErr
}

// windowSlot is one epoch of a replayed window: its partial (kept only
// for a cold epoch, to cache), the sorted ids the partial joined (none
// for an epoch with no cells) and the partial's projection for the flow.
type windowSlot[S Sketch[S]] struct {
	part StoredPartial[S]
	ids  []int
	proj S
}

// coldEpoch returns epoch e's slot over held, the sorted ids whose cells
// src holds: src's stored partial when it joined exactly those ids, and
// otherwise the join of the cells.
func coldEpoch[S Sketch[S]](e int64, held []int, f uint64, wMax int, src HistorySource[S]) (windowSlot[S], error) {
	part, ok, err := src.EpochPartial(e, held)
	if err != nil {
		return windowSlot[S]{}, fmt.Errorf("core: history partial epoch %d: %w", e, err)
	}
	s := windowSlot[S]{part: part, ids: held}
	if !ok {
		p, err := computeEpochPartial(e, held, wMax, src)
		if err != nil || !p.have {
			return windowSlot[S]{}, err
		}
		s = windowSlot[S]{part: DecodedPartial(p.sk, wMax), ids: p.ids}
	}
	if s.proj, err = s.part.Project(f); err != nil {
		return windowSlot[S]{}, fmt.Errorf("core: history window join epoch %d: %w", e, err)
	}
	return s, nil
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
// delta for additive ones. ok is false when the center holds no such cell
// (not yet uploaded, or already trimmed). A held cell is never mutated
// (a round clones what it merges into, recovery only reads the previous
// cell, a trim only unlinks it), so only the lookup holds the center lock.
// This is the epoch log's feed: enc must be the canonical encoder so the
// logged bytes are deterministic.
func (c *Center[S]) MarshalUpload(point int, epoch int64, enc func(S) ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	sk, ok := c.uploads[point][epoch]
	c.mu.Unlock()
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
