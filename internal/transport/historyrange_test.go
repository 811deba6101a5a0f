package transport

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// A range query's cost follows the epochs the store retains, not the
// span it asks for: a 32-byte request for [1, 2^62] must neither allocate
// per requested epoch nor take down the center, and it must be answered
// with an error or with coverage that admits what is missing.
func TestHistoryHugeRangeFollowsRetainedEpochs(t *testing.T) {
	noLeak(t)
	const (
		n, p, w = 4, 2, 32
		epochs  = 6
		seed    = 3
	)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: map[int]int{0: w, 1: w}, M: 16, Seed: seed,
		StoreDir: t.TempDir(), HistoryAddr: "127.0.0.1:0", Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	points := make([]*PointClient, p)
	for x := range points {
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
	for k := 1; k <= epochs; k++ {
		for x, pc := range points {
			record(k, x, pc.Record)
		}
		for _, pc := range points {
			if err := pc.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		if !srv.WaitRounds(int64(k)) {
			t.Fatalf("center closed before round %d", k)
		}
	}
	waitStoreAppends(t, srv, p*epochs)

	qc, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	wantEst, _, err := qc.QueryRange(1, 1, epochs)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := qc.conn.SetReadDeadline(start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// [1, 2^62] over two points expects 2^63 point-epochs, past int64: an
	// error. [1, 2^61] fits, and answers from the retained epochs alone.
	_, cov, errHuge := qc.QueryRange(1, 1, 1<<62)
	est, cov61, err61 := qc.QueryRange(1, 1, 1<<61)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err := qc.conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}

	if elapsed > time.Second {
		t.Fatalf("two huge range queries took %v", elapsed)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("huge range queries allocated %d bytes, want <= 1 MiB", grew)
	}
	if errHuge == nil && (cov.EpochsMerged > p*epochs || cov.Full()) {
		t.Fatalf("QueryRange(1, 2^62) coverage %+v overstates %d retained cells", cov, p*epochs)
	}
	if err61 != nil {
		t.Fatalf("QueryRange(1, 2^61): %v", err61)
	}
	if want := p << 61; cov61.EpochsMerged != p*epochs || cov61.EpochsExpected != want {
		t.Fatalf("QueryRange(1, 2^61) coverage %+v, want %d/%d", cov61, p*epochs, want)
	}
	if math.Float64bits(est) != math.Float64bits(wantEst) {
		t.Fatalf("QueryRange(1, 2^61) = %v, the retained history answers %v", est, wantEst)
	}

	// The center is still serving: the next ordinary query answers.
	if _, cov, err := qc.QueryRange(1, 1, epochs); err != nil || cov.EpochsMerged != p*epochs {
		t.Fatalf("QueryRange after huge ranges: coverage %+v, err %v", cov, err)
	}
	if _, err := qc.Query(1); err != nil {
		t.Fatalf("live query after huge ranges: %v", err)
	}
}
