package core

import (
	"math"
	"testing"

	"repro/internal/rskt"
)

// replayFixture builds a spread center with mixed widths, feeds it
// `epochs` epochs of deterministic traffic, mirrors every accepted
// upload into a mapHistSource (the encoded-cell shape the epoch log
// presents), and records the live answer at every epoch boundary.
func replayFixture(t *testing.T, epochs int64) (*SpreadCenter[*rskt.Sketch], *mapHistSource[*rskt.Sketch], []liveAnswer) {
	t.Helper()
	const (
		n, flows = 4, 5
		m, seed  = 16, 9
	)
	params := map[int]rskt.Params{
		0: {W: 32, M: m, Seed: seed},
		1: {W: 32, M: m, Seed: seed},
		2: {W: 64, M: m, Seed: seed},
	}
	ctr, err := NewSpreadCenter(n, params)
	if err != nil {
		t.Fatal(err)
	}
	src := &mapHistSource[*rskt.Sketch]{
		cells: map[[2]int64][]byte{},
		dec: func(b []byte) (*rskt.Sketch, error) {
			var sk rskt.Sketch
			if err := sk.UnmarshalBinary(b); err != nil {
				return nil, err
			}
			return &sk, nil
		},
	}
	var recorded []liveAnswer
	for k := int64(1); k <= epochs; k++ {
		for id, p := range params {
			b := rskt.New(p)
			for f := uint64(0); f < flows; f++ {
				for i := 0; i < 8; i++ {
					b.Record(f, uint64(id)<<40|uint64(k)<<20|f<<8|uint64(i)%13)
				}
			}
			if err := ctr.Receive(id, k, b); err != nil {
				t.Fatal(err)
			}
			blob, ok, err := ctr.MarshalUpload(id, k, (*rskt.Sketch).MarshalBinaryCompact)
			if err != nil || !ok {
				t.Fatalf("MarshalUpload(%d, %d) = ok=%v err=%v", id, k, ok, err)
			}
			src.cells[[2]int64{int64(id), k}] = blob
		}
		if k < 2 {
			continue
		}
		for f := uint64(0); f < flows; f++ {
			est, cov, err := ctr.QueryWindowLive(f, k)
			if err != nil {
				t.Fatal(err)
			}
			recorded = append(recorded, liveAnswer{f, k, est, cov})
		}
	}
	return ctr, src, recorded
}

// The cache exactness contract: a warm replay — partials served from
// memory — must be bit-identical to the cold replay,
// which is itself bit-identical to the recorded live answer. Sliding a
// range window across the history must stay exact at every step.
func TestHistoryReplayCacheBitIdentical(t *testing.T) {
	const epochs = 12
	ctr, src, recorded := replayFixture(t, epochs)
	ctr.EnableReplayCache(64 << 20)

	for _, want := range recorded {
		for pass := 0; pass < 3; pass++ { // 0: cold, 1: warm, 2: still warm
			got, cov, err := ctr.QueryAtFrom(want.f, want.k, src)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want.est) {
				t.Fatalf("pass %d: QueryAtFrom(f=%d, k=%d) = %v, live answer was %v",
					pass, want.f, want.k, got, want.est)
			}
			if cov != want.cov {
				t.Fatalf("pass %d: QueryAtFrom(f=%d, k=%d) coverage %+v, live was %+v",
					pass, want.f, want.k, cov, want.cov)
			}
		}
	}
	st, ok := ctr.ReplayCacheStats()
	if !ok {
		t.Fatal("ReplayCacheStats reports no cache after EnableReplayCache")
	}
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache never exercised: %+v", st)
	}

	// Sliding window: each step shares all but one epoch with the last.
	// The cold answers come from a detached-cache replay of the same
	// center state; the cached slide must match them bit for bit.
	const win = 4
	type answer struct {
		est float64
		cov Coverage
	}
	cold := map[int64]answer{}
	ctr.EnableReplayCache(0) // detach: pure from-scratch replay
	for from := int64(1); from+win-1 <= epochs; from++ {
		est, cov, err := ctr.QueryRangeFrom(3, from, from+win-1, src)
		if err != nil {
			t.Fatal(err)
		}
		cold[from] = answer{est, cov}
	}
	ctr.EnableReplayCache(64 << 20)
	for from := int64(1); from+win-1 <= epochs; from++ {
		est, cov, err := ctr.QueryRangeFrom(3, from, from+win-1, src)
		if err != nil {
			t.Fatal(err)
		}
		want := cold[from]
		if math.Float64bits(est) != math.Float64bits(want.est) || cov != want.cov {
			t.Fatalf("slide from=%d: warm (%v, %+v) != cold (%v, %+v)",
				from, est, cov, want.est, want.cov)
		}
	}
}

// Eviction honesty across compaction: when the store drops epochs, the
// cache must stop serving them with no hook telling it — the warm answer
// degrades to the surviving cells with honest coverage, bit-identical to
// a from-scratch replay of the degraded source.
func TestHistoryReplayCacheInvalidation(t *testing.T) {
	const epochs = 10
	ctr, src, _ := replayFixture(t, epochs)
	ctr.EnableReplayCache(64 << 20)

	const f, k = 2, int64(epochs)
	warm := func() (float64, Coverage) {
		t.Helper()
		est, cov, err := ctr.QueryAtFrom(f, k, src)
		if err != nil {
			t.Fatal(err)
		}
		return est, cov
	}
	_, full := warm() // prime the partials
	if !full.Full() {
		t.Fatalf("pre-eviction coverage not full: %+v", full)
	}

	// Compaction evicts epoch k-1 (all points): the cached partial's ids
	// no longer match what the source holds.
	for id := 0; id < 3; id++ {
		src.drop(id, k-1)
	}

	est, cov := warm()
	if cov.EpochsMerged != full.EpochsMerged-3 || cov.EpochsExpected != full.EpochsExpected {
		t.Fatalf("post-eviction coverage %+v, want merged %d/%d (cache served an evicted epoch?)",
			cov, full.EpochsMerged-3, full.EpochsExpected)
	}
	// Bit-identical to the detached-cache replay of the degraded source.
	ctr.EnableReplayCache(0)
	est2, cov2, err := ctr.QueryAtFrom(f, k, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(est) != math.Float64bits(est2) || cov != cov2 {
		t.Fatalf("post-eviction warm (%v, %+v) != cold (%v, %+v)", est, cov, est2, cov2)
	}
	ctr.EnableReplayCache(64 << 20)

	// A late append to an already-cached epoch must also show: the
	// backfilled cell joins the next answer instead of being masked by a
	// stale partial.
	warm() // rebuild the cache over the degraded source
	for id := 0; id < 3; id++ {
		src.cells[[2]int64{int64(id), k - 1}] = src.cells[[2]int64{int64(id), k}]
	}
	_, cov = warm()
	if cov.EpochsMerged != full.EpochsMerged {
		t.Fatalf("backfilled epoch not picked up warm: %+v, want %d merged", cov, full.EpochsMerged)
	}
}

// A topology weight change must re-key the cache: answers after
// SetWeight are computed under the new generation, never served from
// partials joined under the old weights.
func TestHistoryReplayCacheTopologyGeneration(t *testing.T) {
	const epochs = 8
	ctr, src, _ := replayFixture(t, epochs)
	const f, k = 1, int64(epochs)

	// New-generation truth, computed without any cache.
	ctr.SetWeight(0, 3)
	wantEst, wantCov, err := ctr.QueryAtFrom(f, k, src)
	if err != nil {
		t.Fatal(err)
	}
	ctr.SetWeight(0, 1)

	ctr.EnableReplayCache(64 << 20)
	_, oldCov, err := ctr.QueryAtFrom(f, k, src) // prime under weight 1
	if err != nil {
		t.Fatal(err)
	}
	if oldCov == wantCov {
		t.Fatalf("weight change does not alter coverage (%+v); generation test is vacuous", oldCov)
	}
	ctr.SetWeight(0, 3)
	got, cov, err := ctr.QueryAtFrom(f, k, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(wantEst) || cov != wantCov {
		t.Fatalf("post-SetWeight answer (%v, %+v) != uncached truth (%v, %+v) — stale generation served",
			got, cov, wantEst, wantCov)
	}
}

// A byte budget far below one window's partials forces LRU eviction;
// answers must stay bit-identical to the unbounded-cache run while the
// eviction counter proves the budget was enforced.
func TestHistoryReplayCacheBudgetEviction(t *testing.T) {
	const epochs = 10
	ctr, src, recorded := replayFixture(t, epochs)
	ctr.EnableReplayCache(1 << 10) // ~1 KiB: a couple of partials at most

	for _, want := range recorded {
		for pass := 0; pass < 2; pass++ {
			got, cov, err := ctr.QueryAtFrom(want.f, want.k, src)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want.est) || cov != want.cov {
				t.Fatalf("budget-starved cache wrong at (f=%d, k=%d): (%v, %+v) want (%v, %+v)",
					want.f, want.k, got, cov, want.est, want.cov)
			}
		}
	}
	st, _ := ctr.ReplayCacheStats()
	if st.Evictions == 0 {
		t.Fatalf("1 KiB budget never evicted: %+v", st)
	}
	if st.Bytes > 1<<10 {
		t.Fatalf("cache bytes %d exceed the %d budget", st.Bytes, 1<<10)
	}

	// The charge: each partial costs 64 bytes plus its sketch's footprint
	// under the paper's model at wMax, so a budget of k charges holds
	// exactly k partials. Spread: 2 rows × 64 columns × 16 registers × 5
	// bits; size: 4 rows × 64 counters × 32 bits.
	checkReplayCharge(t, ctr.Center, src, epochs, 64+2*64*16*5/8)
	sizeCtr, sizeSrc, _ := sizeReplayFixture(t, epochs)
	checkReplayCharge(t, sizeCtr.Center, sizeSrc, epochs, 64+4*64*32/8)
}

// checkReplayCharge replays every epoch of src under a budget of three
// per-partial charges and checks the cache's byte count against the
// partials it holds.
func checkReplayCharge[S Sketch[S]](t *testing.T, ctr *Center[S], src HistorySource[S], epochs, charge int64) {
	t.Helper()
	const k = 3
	ctr.EnableReplayCache(k * charge)
	if _, _, err := ctr.QueryRangeFrom(0, 1, epochs, src); err != nil {
		t.Fatal(err)
	}
	st, _ := ctr.ReplayCacheStats()
	rc := ctr.replay
	rc.mu.Lock()
	var want int64
	for _, ent := range rc.entries {
		want += 64 + int64(ent.sk.MemoryBits()/8)
	}
	rc.mu.Unlock()
	if st.Bytes != want {
		t.Errorf("cache charges %d bytes, its partials' 64 + MemoryBits/8 sum to %d", st.Bytes, want)
	}
	if st.Entries != k || st.Bytes != k*charge {
		t.Errorf("budget of %d charges of %d B holds %d partials in %d bytes, want %d in %d",
			k, charge, st.Entries, st.Bytes, k, k*charge)
	}
}
