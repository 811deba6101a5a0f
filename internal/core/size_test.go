package core

import (
	"errors"
	"testing"

	"repro/internal/countmin"
	"repro/internal/xhash"
)

// genEpochSizePackets generates per-epoch, per-point flow streams with
// skewed sizes.
func genEpochSizePackets(points, epochs, flows int, seed uint64) [][][]uint64 {
	out := make([][][]uint64, epochs)
	ctr := seed
	for k := 0; k < epochs; k++ {
		out[k] = make([][]uint64, points)
		for x := 0; x < points; x++ {
			var ps []uint64
			for f := 0; f < flows; f++ {
				// Flow f sends ~f%13+1 packets per epoch per point, jittered.
				ctr++
				cnt := int(xhash.Hash64(ctr, seed)%7) + f%13 + 1
				for i := 0; i < cnt; i++ {
					ps = append(ps, uint64(f))
				}
			}
			out[k][x] = ps
		}
	}
	return out
}

type sizeCluster struct {
	n       int
	points  []*SizePoint
	center  *SizeCenter
	enhance bool
}

func newSizeCluster(t *testing.T, n int, widths []int, d int, seed uint64, mode SizeMode, enhance bool) *sizeCluster {
	t.Helper()
	params := make(map[int]countmin.Params, len(widths))
	pts := make([]*SizePoint, len(widths))
	for x, w := range widths {
		p := countmin.Params{D: d, W: w, Seed: seed}
		params[x] = p
		sp, err := NewSizePoint(x, p, mode)
		if err != nil {
			t.Fatal(err)
		}
		pts[x] = sp
	}
	center, err := NewSizeCenter(n, params, mode)
	if err != nil {
		t.Fatal(err)
	}
	return &sizeCluster{n: n, points: pts, center: center, enhance: enhance}
}

func (c *sizeCluster) runEpoch(t *testing.T, k int64, packets [][]uint64) {
	t.Helper()
	for x, ps := range packets {
		for _, f := range ps {
			c.points[x].Record(f)
		}
	}
	for x, pt := range c.points {
		upload := pt.EndEpoch()
		if err := c.center.Receive(x, k, upload); err != nil {
			t.Fatal(err)
		}
	}
	for x, pt := range c.points {
		agg, err := c.center.AggregateFor(x, k+1)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.ApplyAggregateCovAt(k+1, agg, 0); err != nil {
			t.Fatal(err)
		}
		if c.enhance {
			enh, err := c.center.EnhancementFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.ApplyEnhancementAt(k+1, enh); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func idealSize(p countmin.Params, packets [][][]uint64, include func(k, x int) bool) *countmin.Sketch {
	s := countmin.New(p)
	for k := range packets {
		for x := range packets[k] {
			if !include(k, x) {
				continue
			}
			for _, f := range packets[k][x] {
				s.Record(f, 0)
			}
		}
	}
	return s
}

func TestSizeProtocolMatchesIdealUniform(t *testing.T) {
	// Theorem 6.3: without device diversity the two-sketch design's C
	// equals the ideal single CountMin over the approximate networkwide
	// T-stream, counter-for-counter.
	const (
		n, p, w, d = 5, 3, 128, 4
		epochs     = 9
	)
	packets := genEpochSizePackets(p, epochs, 50, 17)
	c := newSizeCluster(t, n, []int{w, w, w}, d, 23, SizeModeCumulative, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
		kNext := k + 1
		if kNext <= n {
			continue
		}
		for x := range c.points {
			x := x
			want := idealSize(c.points[x].Params(), packets, func(ek, ex int) bool {
				epoch := ek + 1
				if epoch >= kNext-n+1 && epoch <= kNext-2 {
					return true
				}
				return epoch == kNext-1 && ex == x
			})
			for f := uint64(0); f < 50; f++ {
				if got, wantEst := c.points[x].Query(f), want.Estimate(f); got != wantEst {
					t.Fatalf("epoch %d point %d flow %d: protocol %d != ideal %d",
						kNext, x, f, got, wantEst)
				}
			}
		}
	}
}

func TestSizeRecoveryMatchesDeltaMode(t *testing.T) {
	// The center's subtraction-based recovery must reproduce exactly the
	// per-epoch sketches a delta-uploading point would send.
	const (
		n, p, w, d = 5, 3, 64, 4
		epochs     = 8
	)
	packets := genEpochSizePackets(p, epochs, 40, 31)
	cum := newSizeCluster(t, n, []int{w, w, w}, d, 7, SizeModeCumulative, false)
	del := newSizeCluster(t, n, []int{w, w, w}, d, 7, SizeModeDelta, false)
	for k := 1; k <= epochs; k++ {
		cum.runEpoch(t, int64(k), packets[k-1])
		del.runEpoch(t, int64(k), packets[k-1])
		for x := 0; x < p; x++ {
			a := cum.center.Delta(x, int64(k))
			b := del.center.Delta(x, int64(k))
			if a == nil || b == nil {
				t.Fatalf("missing delta for point %d epoch %d", x, k)
			}
			if !a.Equal(b) {
				t.Fatalf("recovered delta differs from true delta: point %d epoch %d", x, k)
			}
		}
	}
}

func TestSizeRecoveryWithEnhancement(t *testing.T) {
	// The enhancement contaminates the cumulative upload; the center must
	// compensate so recovery stays exact.
	const (
		n, p, w, d = 5, 3, 64, 4
		epochs     = 8
	)
	packets := genEpochSizePackets(p, epochs, 30, 41)
	cum := newSizeCluster(t, n, []int{w, w, w}, d, 3, SizeModeCumulative, true)
	del := newSizeCluster(t, n, []int{w, w, w}, d, 3, SizeModeDelta, true)
	for k := 1; k <= epochs; k++ {
		cum.runEpoch(t, int64(k), packets[k-1])
		del.runEpoch(t, int64(k), packets[k-1])
		for x := 0; x < p; x++ {
			a, b := cum.center.Delta(x, int64(k)), del.center.Delta(x, int64(k))
			if a == nil || !a.Equal(b) {
				t.Fatalf("enhanced recovery broken at point %d epoch %d", x, k)
			}
		}
	}
}

func TestSizeEnhancementCoversLastEpoch(t *testing.T) {
	// With enhancement, C covers all points' epochs kNext-n+1 .. kNext-1.
	const (
		n, p, w, d = 5, 3, 128, 4
		epochs     = 9
	)
	packets := genEpochSizePackets(p, epochs, 40, 19)
	c := newSizeCluster(t, n, []int{w, w, w}, d, 29, SizeModeCumulative, true)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	for x := range c.points {
		want := idealSize(c.points[x].Params(), packets, func(ek, ex int) bool {
			epoch := ek + 1
			return epoch >= kNext-n+1 && epoch <= kNext-1
		})
		for f := uint64(0); f < 40; f++ {
			if got, wantEst := c.points[x].Query(f), want.Estimate(f); got != wantEst {
				t.Fatalf("point %d flow %d: enhanced %d != ideal %d", x, f, got, wantEst)
			}
		}
	}
}

func TestSizeDiversityBounds(t *testing.T) {
	// Theorem 6.4: with diversity, the estimate at any point is bounded by
	// the ideal estimates at the largest and smallest widths:
	// s'_{p-1} <= s_{f,x} <= s'_0.
	const (
		n, p, d = 5, 3, 4
		epochs  = 9
	)
	widths := []int{32, 64, 128}
	packets := genEpochSizePackets(p, epochs, 60, 53)
	c := newSizeCluster(t, n, widths, d, 11, SizeModeCumulative, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	for x := range c.points {
		x := x
		include := func(ek, ex int) bool {
			epoch := ek + 1
			if epoch >= kNext-n+1 && epoch <= kNext-2 {
				return true
			}
			return epoch == kNext-1 && ex == x
		}
		seed := c.points[x].Params().Seed
		lo := idealSize(countmin.Params{D: d, W: widths[len(widths)-1], Seed: seed}, packets, include)
		hi := idealSize(countmin.Params{D: d, W: widths[0], Seed: seed}, packets, include)
		for f := uint64(0); f < 60; f++ {
			got := c.points[x].Query(f)
			if got < lo.Estimate(f) || got > hi.Estimate(f) {
				t.Fatalf("point %d flow %d: estimate %d outside [%d, %d]",
					x, f, got, lo.Estimate(f), hi.Estimate(f))
			}
		}
	}
}

func TestSizeEstimateNeverBelowTruth(t *testing.T) {
	// CountMin's one-sided error survives the whole protocol: the answer
	// can never undershoot the true approximate-T-stream size.
	const (
		n, p, d = 5, 3, 4
		epochs  = 9
	)
	packets := genEpochSizePackets(p, epochs, 50, 61)
	c := newSizeCluster(t, n, []int{64, 64, 64}, d, 31, SizeModeCumulative, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	truth := make(map[uint64]int64)
	for ek := range packets {
		epoch := ek + 1
		for ex := range packets[ek] {
			if epoch >= kNext-n+1 && epoch <= kNext-2 || (epoch == kNext-1 && ex == 0) {
				for _, f := range packets[ek][ex] {
					truth[f]++
				}
			}
		}
	}
	for f, want := range truth {
		if got := c.points[0].Query(f); got < want {
			t.Fatalf("flow %d: estimate %d below truth %d", f, got, want)
		}
	}
}

func TestSizeCenterSequencing(t *testing.T) {
	params := countmin.Params{D: 4, W: 16, Seed: 1}
	center, err := NewSizeCenter(5, map[int]countmin.Params{0: params}, SizeModeCumulative)
	if err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(0, 1, countmin.New(params)); err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(0, 1, countmin.New(params)); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("duplicate upload: got %v, want ErrDuplicateUpload", err)
	}
	// A cumulative-mode epoch gap breaks the recovery chain: the post-gap
	// upload is dropped pending a rebase, and so is the next in-order one.
	if err := center.Receive(0, 3, countmin.New(params)); !errors.Is(err, ErrUploadGap) {
		t.Fatalf("gap upload: got %v, want ErrUploadGap", err)
	}
	if err := center.Receive(0, 4, countmin.New(params)); !errors.Is(err, ErrUploadGap) {
		t.Fatalf("post-gap upload: got %v, want ErrUploadGap", err)
	}
	// A rebase upload reseeds the chain; in-order uploads recover again.
	if err := center.ReceiveMeta(0, 5, countmin.New(params), UploadMeta{Epoch: 5, Rebase: true}); err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(0, 6, countmin.New(params)); err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(5, 1, countmin.New(params)); err == nil {
		t.Fatal("expected unknown-point error")
	}
	wrong := countmin.New(countmin.Params{D: 4, W: 32, Seed: 1})
	if err := center.Receive(0, 2, wrong); err == nil {
		t.Fatal("expected parameter-mismatch error")
	}
}

func TestSizeCenterValidation(t *testing.T) {
	good := countmin.Params{D: 4, W: 16, Seed: 1}
	if _, err := NewSizeCenter(2, map[int]countmin.Params{0: good}, SizeModeCumulative); err == nil {
		t.Fatal("expected n<3 error")
	}
	if _, err := NewSizeCenter(5, nil, SizeModeCumulative); err == nil {
		t.Fatal("expected empty-cluster error")
	}
	if _, err := NewSizeCenter(5, map[int]countmin.Params{0: good}, SizeMode(0)); err == nil {
		t.Fatal("expected bad-mode error")
	}
	bad := map[int]countmin.Params{0: good, 1: {D: 5, W: 16, Seed: 1}}
	if _, err := NewSizeCenter(5, bad, SizeModeCumulative); err == nil {
		t.Fatal("expected mismatched D error")
	}
}

func TestSizePointValidation(t *testing.T) {
	if _, err := NewSizePoint(0, countmin.Params{D: 0, W: 4}, SizeModeCumulative); err == nil {
		t.Fatal("expected invalid-params error")
	}
	if _, err := NewSizePoint(0, countmin.Params{D: 4, W: 4}, SizeMode(9)); err == nil {
		t.Fatal("expected invalid-mode error")
	}
	pt, err := NewSizePoint(0, countmin.Params{D: 4, W: 4}, SizeModeCumulative)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.ApplyAggregateCovAt(1, nil, 0); err != nil {
		t.Fatal("nil aggregate must be a no-op")
	}
	if pt.Mode() != SizeModeCumulative || pt.ID() != 0 {
		t.Fatal("accessor mismatch")
	}
}

func TestSizeAggregateIdempotent(t *testing.T) {
	// AggregateFor must return the identical recorded sketch when called
	// twice for the same (point, epoch) — recovery depends on it.
	const n, w, d = 5, 32, 4
	packets := genEpochSizePackets(2, 7, 20, 71)
	c := newSizeCluster(t, n, []int{w, w}, d, 37, SizeModeCumulative, false)
	for k := 1; k <= 6; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	a, err := c.center.AggregateFor(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.center.AggregateFor(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || !a.Equal(b) {
		t.Fatal("AggregateFor not idempotent")
	}
}
