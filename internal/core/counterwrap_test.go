package core

import (
	"testing"

	"repro/internal/countmin"
)

// recordBulk records n packets of flow f at pt, exactly as n Record calls
// would: it adds n at f's counters of one ingest lane.
func recordBulk(pt *Point[*countmin.Sketch], f uint64, n int64) {
	l := pt.shared[0]
	l.mu.Lock()
	l.d.Add(f, n)
	l.markDirty()
	l.mu.Unlock()
}

// TestSizeRecoveryExactAcrossCounterWrap drives the paper's cumulative
// two-sketch design until every point's C holds more than 2^32 packets of
// one flow, past both 2^31 and 2^32, while each epoch adds under 2^31.
// The center's recovery (Section V-B) subtracts one cumulative upload
// from the next, exact modulo 2^32, so every recovered per-epoch cell
// must equal the sketch of that epoch's packets alone, and equal what a
// delta-uploading point sends for the same packets.
func TestSizeRecoveryExactAcrossCounterWrap(t *testing.T) {
	const (
		n, p, w, d = 4, 2, 16, 2
		epochs     = 8
		heavy      = uint64(1)
		bulk       = 3 << 28 // per point per epoch
	)
	// C_{x,k} holds the n-2 epochs of the aggregate from both points plus
	// two epochs of its own: past 2^32 from the window's first full round.
	if held := int64((n-2)*p+2) * bulk; held <= 1<<32 {
		t.Fatalf("the test's C peaks at %d packets, not past 2^32", held)
	}
	packets := genEpochSizePackets(p, epochs, 20, 41)
	cum := newSizeCluster(t, n, []int{w, w}, d, 9, SizeModeCumulative, false)
	del := newSizeCluster(t, n, []int{w, w}, d, 9, SizeModeDelta, false)
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			recordBulk(cum.points[x].Point, heavy, bulk)
			recordBulk(del.points[x].Point, heavy, bulk)
		}
		cum.runEpoch(t, int64(k), packets[k-1])
		del.runEpoch(t, int64(k), packets[k-1])
		for x := 0; x < p; x++ {
			want := countmin.New(cum.points[x].Params())
			want.Add(heavy, bulk)
			for _, f := range packets[k-1][x] {
				want.Record(f, 0)
			}
			got := cum.center.Delta(x, int64(k))
			if got == nil || !got.Equal(want) {
				t.Fatalf("point %d epoch %d: the recovered cell is not the epoch's packets", x, k)
			}
			if !got.Equal(del.center.Delta(x, int64(k))) {
				t.Fatalf("point %d epoch %d: recovered cell differs from the delta upload", x, k)
			}
			if got.Estimate(heavy) < bulk {
				t.Fatalf("point %d epoch %d: heavy flow reads %d, below its %d packets", x, k, got.Estimate(heavy), bulk)
			}
		}
	}
}

// TestSizeWindowPastCounterBound pins what the center's window reads at
// and past 2^31 packets per counter (DESIGN.md §4): the join adds the
// held cells modulo 2^32, so a window of 2^31 - 1 packets reads exactly,
// one of 2^31 + x reads zero and one of 2^32 + x reads x. The per-epoch
// cells the center holds, and the epoch log stores, stay exact.
func TestSizeWindowPastCounterBound(t *testing.T) {
	const (
		n, k = 4, 3 // round 3 pushes the join of epochs 1 and 2
		f    = uint64(5)
	)
	params := map[int]countmin.Params{0: {D: 2, W: 16, Seed: 3}, 1: {D: 2, W: 32, Seed: 3}}
	for _, tc := range []struct {
		cells [4]int64 // (point 0, 1) × (epoch 1, 2)
		want  int64
	}{
		{[4]int64{1 << 29, 1 << 29, 1 << 29, 1<<29 - 1}, 1<<31 - 1},
		{[4]int64{1 << 29, 1 << 29, 1 << 29, 1<<29 + 8}, 0},
		{[4]int64{1 << 30, 1 << 30, 1 << 30, 1<<30 + 8}, 8},
	} {
		c, err := NewSizeCenter(n, params, SizeModeDelta)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tc.cells {
			x, e := i/2, int64(i%2+1)
			up := countmin.New(params[x])
			up.Add(f, v)
			if err := c.Receive(x, e, up); err != nil {
				t.Fatal(err)
			}
			if got := c.Delta(x, e).Estimate(f); got != v {
				t.Fatalf("cell (%d, %d) reads %d, want %d", x, e, got, v)
			}
		}
		got, cov, err := c.QueryWindowLive(f, k)
		if err != nil || !cov.Full() {
			t.Fatalf("window %v: coverage %+v, err %v", tc.cells, cov, err)
		}
		if int64(got) != tc.want {
			t.Errorf("window %v: reads %v, want %d", tc.cells, got, tc.want)
		}
	}
}
