package transport

import (
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

// The retrospective-query exactness contract, end to end over real TCP:
// a -at answer replayed from the epoch-log store must be bit-identical
// (estimate and coverage) to the live answer the center computed at that
// epoch — across flat, tree, and sharded topologies, both designs, and
// a center restart that rebuilds the log index from disk.

// histAnswer is one recorded live reference answer.
type histAnswer struct {
	f   uint64
	k   int64
	est float64
	cov core.Coverage
}

// recordLive snapshots the center's live windowed answers for flows
// 0..flows-1 as of epoch k.
func recordLive(t *testing.T, srv *CenterServer, flows uint64, k int64) []histAnswer {
	t.Helper()
	out := make([]histAnswer, 0, flows)
	for f := uint64(0); f < flows; f++ {
		est, cov, err := srv.QueryWindowLive(f, k)
		if err != nil {
			t.Fatalf("QueryWindowLive(%d, %d): %v", f, k, err)
		}
		out = append(out, histAnswer{f, k, est, cov})
	}
	return out
}

// checkReplay asserts every recorded answer is reproduced bit for bit by
// the historical RPC at addr.
func checkReplay(t *testing.T, addr string, recorded []histAnswer) {
	t.Helper()
	qc, err := DialQuery(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for _, want := range recorded {
		got, cov, err := qc.QueryAt(want.f, want.k)
		if err != nil {
			t.Fatalf("QueryAt(f=%d, k=%d): %v", want.f, want.k, err)
		}
		if math.Float64bits(got) != math.Float64bits(want.est) {
			t.Fatalf("QueryAt(f=%d, k=%d) = %v, live answer was %v", want.f, want.k, got, want.est)
		}
		if cov != want.cov {
			t.Fatalf("QueryAt(f=%d, k=%d) coverage %+v, live was %+v", want.f, want.k, cov, want.cov)
		}
	}
}

// waitStoreAppends blocks until the center's epoch log has ingested at
// least n cells: appendStore runs outside the round lock, so a round can
// be observable (WaitRounds) microseconds before its last cell lands.
func waitStoreAppends(t *testing.T, srv *CenterServer, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d store appends", n), func() bool {
		return srv.Stats().StoreAppends >= n
	})
}

func testHistoryFlatOracle(t *testing.T, kind Kind, sketch string) {
	const (
		n, p, w = 4, 3, 32
		epochs  = 10
		flows   = 6
		seed    = 5
	)
	dir := t.TempDir()
	cfg := CenterConfig{
		Addr: "127.0.0.1:0", Kind: kind, Sketch: sketch, WindowN: n,
		Widths: map[int]int{0: w, 1: w, 2: w}, M: 16, D: 4, Seed: seed,
		StoreDir: dir, HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	}
	srv, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: kind, Sketch: sketch,
			W: w, M: 16, D: 4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		points[x] = pc
	}

	var recorded []histAnswer
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.WaitRounds(int64(k)) {
			t.Fatalf("center closed before round %d", k)
		}
		if k >= 2 {
			recorded = append(recorded, recordLive(t, srv, flows, int64(k))...)
		}
	}
	waitStoreAppends(t, srv, p*epochs)

	// First through the RPC against the running center, cold...
	histAddr := srv.HistoryQueryAddr().String()
	srv.ResetReplayCache()
	checkReplay(t, histAddr, recorded)

	// ...then warm: the replay cache now holds every window's partials,
	// and the repeated pass must stay bit-identical while the
	// stats prove it actually ran through the cache.
	checkReplay(t, histAddr, recorded)
	if st := srv.Stats(); !st.ReplayCacheEnabled || st.ReplayCacheHits == 0 {
		t.Fatalf("replay cache idle across a repeated oracle pass: hits=%d enabled=%v",
			st.ReplayCacheHits, st.ReplayCacheEnabled)
	}

	// ...and a range query spanning the whole retained history.
	qc, err := DialQuery(histAddr)
	if err != nil {
		t.Fatal(err)
	}
	if _, cov, err := qc.QueryRange(1, 1, epochs); err != nil {
		t.Fatal(err)
	} else if want := p * epochs; cov.EpochsMerged != want || cov.EpochsExpected != want {
		t.Fatalf("QueryRange coverage %+v, want %d/%d", cov, want, want)
	}
	qc.Close()

	// Then across a restart: a fresh center on the same StoreDir rebuilds
	// the log index from the segment files and must answer identically —
	// with no points connected and no live window at all.
	for _, pc := range points {
		pc.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	checkReplay(t, srv2.HistoryQueryAddr().String(), recorded)
}

func TestHistoryFlatOracleSpread(t *testing.T) {
	noLeak(t)
	testHistoryFlatOracle(t, KindSpread, SketchRskt)
}

func TestHistoryFlatOracleSpreadVhll(t *testing.T) {
	noLeak(t)
	testHistoryFlatOracle(t, KindSpread, SketchVhll)
}

func TestHistoryFlatOracleSize(t *testing.T) {
	noLeak(t)
	testHistoryFlatOracle(t, KindSize, "")
}

// A two-level tree: the center's store holds the relay's pre-merged
// subtree cells, and tqquery in any subtree reaches it through the
// relay's transparent history proxy.
func testHistoryTreeOracle(t *testing.T, kind Kind) {
	const (
		n, p, w = 4, 2, 32
		relayID = 7
		epochs  = 8
		flows   = 5
		seed    = 13
	)
	delta := kind == KindSize // cumulative sketches cannot be pre-merged
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: kind, WindowN: n,
		Widths:  map[int]int{relayID: w},
		Weights: map[int]int{relayID: p},
		M:       16, D: 4, Seed: seed, DeltaUploads: delta,
		StoreDir: t.TempDir(), HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	relay, err := ServeRelay(RelayConfig{
		Addr: "127.0.0.1:0", UpstreamAddr: srv.Addr().String(), Relay: relayID,
		Kind: kind, WindowN: n,
		Widths: map[int]int{0: w, 1: w},
		M:      16, D: 4, Seed: seed, Logf: quietLogf,
		HistoryAddr:         "127.0.0.1:0",
		HistoryUpstreamAddr: srv.HistoryQueryAddr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: relay.Addr().String(), Point: x, Kind: kind,
			W: w, M: 16, D: 4, Seed: seed, DeltaUploads: delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}

	var recorded []histAnswer
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.WaitRounds(int64(k)) {
			t.Fatalf("center closed before round %d", k)
		}
		if k >= 2 {
			recorded = append(recorded, recordLive(t, srv, flows, int64(k))...)
		}
	}
	waitStoreAppends(t, srv, epochs) // one combined cell per epoch

	// Query through the relay's proxy: the child-side address answers
	// with the root store's replay, bit for bit.
	checkReplay(t, relay.HistoryQueryAddr().String(), recorded)
}

func TestHistoryTreeOracleSpread(t *testing.T) {
	noLeak(t)
	testHistoryTreeOracle(t, KindSpread)
}
func TestHistoryTreeOracleSize(t *testing.T) {
	noLeak(t)
	testHistoryTreeOracle(t, KindSize)
}

// Flow-space sharding: each shard center keeps its own store; a query
// for flow f replays on the shard that owns f and must match that
// shard's live answer.
func TestHistoryShardedOracleSpread(t *testing.T) {
	noLeak(t)
	const (
		n, p, w = 4, 2, 32
		shards  = 2
		epochs  = 8
		flows   = 8
		seed    = 31
	)
	srvs := make([]*CenterServer, shards)
	addrs := make([]string, shards)
	for si := 0; si < shards; si++ {
		srv, err := ServeCenter(CenterConfig{
			Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
			Widths: map[int]int{0: w, 1: w}, M: 16, Seed: seed, Shard: si,
			StoreDir: t.TempDir(), HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srvs[si] = srv
		addrs[si] = srv.Addr().String()
	}
	points := make([]*ShardedPointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialShardedPoint(ShardedPointConfig{
			Addrs: addrs, Point: x, Kind: KindSpread, W: w, M: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}

	part := core.NewFlowPartition(seed, shards)
	recorded := make([][]histAnswer, shards)
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		for si := 0; si < shards; si++ {
			if !srvs[si].WaitRounds(int64(k)) {
				t.Fatalf("shard %d closed before round %d", si, k)
			}
		}
		if k < 2 {
			continue
		}
		// Record each flow's live answer on the shard that owns it — the
		// answer tqquery would have routed to at the time.
		for f := uint64(0); f < flows; f++ {
			si := part.Shard(f)
			est, cov, err := srvs[si].QueryWindowLive(f, int64(k))
			if err != nil {
				t.Fatal(err)
			}
			recorded[si] = append(recorded[si], histAnswer{f, int64(k), est, cov})
		}
	}
	for si := 0; si < shards; si++ {
		waitStoreAppends(t, srvs[si], p*epochs)
		checkReplay(t, srvs[si].HistoryQueryAddr().String(), recorded[si])
	}
}

// Retention at a query window's edge: epochs compacted away make the
// answer degrade to the surviving cells with honestly reduced coverage —
// never an error, never a silently full-coverage claim — while fully
// retained windows stay bit-identical to their live answers.
func TestHistoryRetentionWindowEdge(t *testing.T) {
	noLeak(t)
	const (
		n, p, w = 4, 2, 32
		epochs  = 14
		retain  = 4
		seed    = 17
	)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: map[int]int{0: w, 1: w}, M: 16, Seed: seed,
		StoreDir: t.TempDir(), RetainEpochs: retain, StoreSegmentBytes: 256,
		HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: KindSpread,
			W: w, M: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}
	var lastLive []histAnswer
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.WaitRounds(int64(k)) {
			t.Fatalf("center closed before round %d", k)
		}
		if k == epochs {
			lastLive = recordLive(t, srv, 4, int64(k))
		}
	}
	waitStoreAppends(t, srv, p*epochs)

	// Prime the replay cache over the whole history before the explicit
	// compaction below: evicted epochs must not be resurrected from
	// cached partials or memos. (Background compaction off Append may
	// already have trimmed the oldest epochs mid-ingest; the prime
	// caches whatever survives right now.)
	prime, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer prime.Close()
	if _, _, err := prime.QueryRange(1, 1, epochs); err != nil {
		t.Fatal(err)
	}

	if err := srv.CompactStore(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.StoreCompactions == 0 || st.StoreCompactionErrors != 0 {
		t.Fatalf("expected clean compactions, got %+v", st)
	}
	if st.StoreFirstEpoch <= 2 {
		t.Fatalf("retention evicted nothing (first epoch %d) — the edge case is untested", st.StoreFirstEpoch)
	}
	if st.StoreLastCompaction.IsZero() {
		t.Fatal("StoreLastCompaction not stamped")
	}

	// The newest window survives retention in full: still bit-identical.
	checkReplay(t, srv.HistoryQueryAddr().String(), lastLive)

	// A window wholly before the cutoff: the RPC answers (it is not an
	// error), with zero merged and an honest expected count.
	qc, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	est, cov, err := qc.QueryAt(1, 3) // window [1, 2], long evicted
	if err != nil {
		t.Fatalf("QueryAt over evicted window: %v", err)
	}
	if est != 0 || cov.EpochsMerged != 0 || cov.EpochsExpected != p*2 {
		t.Fatalf("evicted window: est=%v cov=%+v, want 0 merged of %d", est, cov, p*2)
	}

	// A range straddling the retention edge: merged counts exactly the
	// surviving cells, expected the whole range — even though the same
	// range was answered in full from this cache moments before
	// compaction. The cached partials of evicted epochs joined ids the
	// log no longer holds, so none of them is served. Retention is
	// whole-segment, so the oldest retained epoch may keep only some of
	// its cells, or only its partial cell (appended after the epoch's
	// push, it can share a segment with the next epoch's cells); every
	// later epoch is whole.
	first := st.StoreFirstEpoch
	est, cov, err = qc.QueryRange(1, 1, epochs)
	if err != nil {
		t.Fatal(err)
	}
	wantMerged := 0
	for _, h := range srv.store.Held(1, epochs, []int{0, 1}) {
		wantMerged += len(h)
	}
	if wantMerged < p*int(epochs-first) {
		t.Fatalf("the log holds %d cells, fewer than the %d whole epochs after %d", wantMerged, epochs-first, first)
	}
	if cov.EpochsMerged != wantMerged || cov.EpochsExpected != p*epochs {
		t.Fatalf("straddling range coverage %+v, want %d/%d", cov, wantMerged, p*epochs)
	}
	// The degraded answer itself caches: a warm repeat is bit-identical.
	est2, cov2, err := qc.QueryRange(1, 1, epochs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(est2) != math.Float64bits(est) || cov2 != cov {
		t.Fatalf("warm repeat of degraded range diverged: (%v, %+v) != (%v, %+v)", est2, cov2, est, cov)
	}
}

// Compaction racing concurrent range queries over the RPC (the
// query-level half of the race satellite; the Log-level half lives in
// internal/durable). Run under -race.
func TestHistoryCompactionRacesRangeQueries(t *testing.T) {
	noLeak(t)
	const (
		n, p, w = 4, 2, 32
		epochs  = 20
		seed    = 23
	)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: map[int]int{0: w, 1: w}, M: 16, Seed: seed,
		StoreDir: t.TempDir(), RetainEpochs: 3, StoreSegmentBytes: 256,
		HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: KindSpread,
			W: w, M: 16, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc, err := DialQuery(srv.HistoryQueryAddr().String())
			if err != nil {
				t.Errorf("dial history: %v", err)
				return
			}
			defer qc.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := qc.QueryRange(1, 1, epochs); err != nil {
					t.Errorf("QueryRange during compaction: %v", err)
					return
				}
			}
		}()
	}
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.WaitRounds(int64(k)) {
			t.Fatalf("center closed before round %d", k)
		}
		if k%5 == 0 {
			if err := srv.CompactStore(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// A center without a store still serves the live query forms on its
// history address, and refuses the historical ones cleanly.
func TestHistoryRPCWithoutStore(t *testing.T) {
	noLeak(t)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: 3,
		Widths: map[int]int{0: 32}, M: 16, Seed: 1,
		HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if _, _, err := qc.QueryAt(1, 5); err == nil {
		t.Fatal("QueryAt succeeded against a store-less center")
	}
	// The connection survives the refusal: the live form still answers.
	if _, err := qc.Query(1); err != nil {
		t.Fatalf("live query after refused historical query: %v", err)
	}
}

// The historical-query wire frames, pinned byte for byte. These are the
// exact hex strings documented in PROTOCOL.md ("Historical-query RPC");
// changing any of them breaks tqquery↔center version compatibility.
func TestHistoryFrameGoldenBytes(t *testing.T) {
	noLeak(t)
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{
			"at_request", encodeAtRequest(7, 16),
			"feffffffffffffff" + "0700000000000000" + "1000000000000000",
		},
		{
			"range_request", encodeRangeRequest(7, 3, 9),
			"fdffffffffffffff" + "0700000000000000" + "0300000000000000" + "0900000000000000",
		},
		{
			"cov_response", encodeCovResponse(1.5, core.Coverage{EpochsMerged: 9, EpochsExpected: 12}),
			"000000000000f83f" + "0900000000000000" + "0c00000000000000",
		},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s frame changed:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
	// The error response is NaN with zero coverage; clients must map any
	// NaN back to an error, whatever its payload bits.
	v, cov := decodeCovResponse(encodeCovResponse(math.NaN(), core.Coverage{}))
	if !math.IsNaN(v) || cov != (core.Coverage{}) {
		t.Fatalf("NaN error response did not round-trip: %v %+v", v, cov)
	}
}

// A hostile epoch must not wrap: QueryAt for k near math.MinInt64 gets
// the "no completed window" answer (NaN over the wire), not a window of
// the top epochs, and the same connection then answers a real window and
// the largest k.
func TestHistoryQueryAtEpochEdges(t *testing.T) {
	noLeak(t)
	const n, p = 4, 2
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: map[int]int{0: 32, 1: 32}, M: 16, Seed: 1,
		StoreDir: t.TempDir(), HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for _, k := range []int64{math.MinInt64, math.MinInt64 + 1, 0, 1} {
		if v, cov, err := qc.QueryAt(0, k); err == nil {
			t.Errorf("QueryAt(0, %d) = %v, %+v; want no completed window", k, v, cov)
		}
	}
	for _, c := range []struct {
		k    int64
		want core.Coverage
	}{
		{3, core.Coverage{EpochsExpected: p * 2}},
		{math.MaxInt64, core.Coverage{EpochsExpected: p * (n - 2)}},
	} {
		if v, cov, err := qc.QueryAt(0, c.k); err != nil || v != 0 || cov != c.want {
			t.Errorf("QueryAt(0, %d) = %v, %+v, %v; want 0, %+v", c.k, v, cov, err, c.want)
		}
	}
}
