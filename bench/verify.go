package main

import (
	"math"
	"sort"

	"repro/internal/countmin"
	"repro/internal/metrics"
	"repro/internal/rskt"
	"repro/internal/transport"
)

// verify checks the program's answers on the quiescent cluster after the
// timed loop. Every miss is a failed operation.
func (b *bench) verify() {
	if b.s.areTol > 0 {
		b.verifyARE()
	} else {
		b.verifyIdeal()
	}
	b.verifyHistory()
	b.c.logMu.Lock()
	for _, l := range b.c.logs {
		b.ops.fail("server log: %s", l)
	}
	b.c.logMu.Unlock()
}

// feedWindow replays into rec the packets point x's answer covers during
// epoch kNext: every point's epochs kNext-n+1 .. kNext-2 plus x's own
// epoch kNext-1 (the approximate networkwide T-stream).
func (b *bench) feedWindow(x int, kNext int64, rec func(y int, e int64, f, el uint64)) {
	for e := kNext - windowN + 1; e <= kNext-1; e++ {
		if e < 1 {
			continue
		}
		for y, ps := range b.ring.epoch(e) {
			if e == kNext-1 && y != x {
				continue
			}
			for _, p := range ps {
				rec(y, e, p.Flow, p.Elem)
			}
		}
	}
}

// verifyIdeal compares sampled flows at two points bit-for-bit against an
// ideal sketch built from scratch, with the sketch package's public API,
// over the same packets (Thm 6.1 / 6.3; uniform widths).
func (b *bench) verifyIdeal() {
	kNext := b.k + 1
	seed := uint64(b.o.seed)
	for _, x := range []int{0, b.s.points - 1} {
		var want func(f uint64) float64
		if b.s.kind == transport.KindSize {
			ideal := countmin.New(countmin.Params{D: cmDepth, W: b.s.width(x), Seed: seed})
			b.feedWindow(x, kNext, func(_ int, _ int64, f, _ uint64) { ideal.Record(f, 0) })
			want = func(f uint64) float64 { return float64(ideal.Estimate(f)) }
		} else {
			ideal := rskt.New(rskt.Params{W: b.s.width(x), M: hllM, Seed: seed})
			b.feedWindow(x, kNext, func(_ int, _ int64, f, el uint64) { ideal.Record(f, el) })
			want = ideal.Estimate
		}
		for _, f := range b.flows[:128] {
			got, cov, err := b.localQuery(x, f)
			b.ops.attempted.Add(1)
			if w := want(f); err != nil || !cov.Full() || got != w {
				b.ops.fail("point %d flow %#x: live %v != ideal %v (err=%v coverage=%+v)", x, f, got, w, err, cov)
			}
		}
	}
}

// verifyARE checks the nonuniform-width workload against exact ground
// truth: the average relative error over the window's 100 largest flows
// stays within the workload's pinned tolerance at one point of each width.
func (b *bench) verifyARE() {
	kNext := b.k + 1
	truth, err := metrics.NewTruth(windowN, b.s.points, true, false)
	if err != nil {
		b.ops.fail("truth: %v", err)
		return
	}
	// Point -1 matches no point: only the all-points epochs are fed here,
	// and epoch kNext-1 (of which SizeTruth picks x's share) below.
	b.feedWindow(-1, kNext, func(y int, e int64, f, el uint64) { truth.Record(e, y, f, el) })
	for y, ps := range b.ring.epoch(kNext - 1) {
		for _, p := range ps {
			truth.Record(kNext-1, y, p.Flow, p.Elem)
		}
	}
	for x := 0; x < len(b.s.widths); x++ {
		sizes := truth.SizeTruth(x, kNext)
		count := make(map[uint64]int, len(sizes))
		for f, c := range sizes {
			count[f] = int(c)
		}
		sum := 0.0
		top := topFlows(count, 100)
		for _, f := range top {
			got, cov, err := b.localQuery(x, f)
			if err != nil || !cov.Full() {
				b.ops.fail("point %d flow %#x: err=%v coverage=%+v", x, f, err, cov)
			}
			sum += math.Abs(got-float64(sizes[f])) / float64(sizes[f])
		}
		are := sum / float64(len(top))
		b.ops.attempted.Add(1)
		if !(are <= b.s.areTol) {
			b.ops.fail("point %d (w=%d): ARE %.4f over top %d flows exceeds %.4f", x, b.s.width(x), are, len(top), b.s.areTol)
		}
		b.are = max(b.are, are)
	}
}

// verifyHistory replays, over the RPC, every window whose live answer was
// recorded during the run: QueryAt(f, k) must reproduce it bit for bit.
func (b *bench) verifyHistory() {
	for _, la := range b.live {
		got, cov, err := b.c.hist.QueryAt(la.flow, la.k)
		b.ops.attempted.Add(1)
		if err != nil || !cov.Full() || got != la.est {
			b.ops.fail("QueryAt(%#x, %d) = %v, live answer was %v (err=%v coverage=%+v)", la.flow, la.k, got, la.est, err, cov)
		}
	}
}

// topFlows returns the n most frequent flows, ties broken by label so the
// result is deterministic.
func topFlows(count map[uint64]int, n int) []uint64 {
	all := make([]uint64, 0, len(count))
	for f := range count {
		all = append(all, f)
	}
	sort.Slice(all, func(i, j int) bool {
		if count[all[i]] != count[all[j]] {
			return count[all[i]] > count[all[j]]
		}
		return all[i] < all[j]
	})
	return all[:min(n, len(all))]
}
