package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hll"
	"repro/internal/rskt"
	"repro/internal/xhash"
)

// pkt is a test packet.
type pkt struct{ f, e uint64 }

// genEpochPackets deterministically generates the packets each point sees
// in each epoch: flows 0..flows-1, each with a per-epoch, per-point set of
// elements drawn from a flow-specific universe so streams overlap across
// points (exercising the union semantics).
func genEpochPackets(points, epochs, flows, perFlow int, seed uint64) [][][]pkt {
	out := make([][][]pkt, epochs)
	ctr := seed
	for k := 0; k < epochs; k++ {
		out[k] = make([][]pkt, points)
		for x := 0; x < points; x++ {
			var ps []pkt
			for f := 0; f < flows; f++ {
				for i := 0; i < perFlow; i++ {
					ctr++
					// Elements from a universe of size 4*perFlow per flow:
					// overlaps within and across epochs/points.
					e := xhash.Hash64(ctr, seed) % uint64(4*perFlow)
					ps = append(ps, pkt{f: uint64(f), e: uint64(f)<<32 | e})
				}
			}
			out[k][x] = ps
		}
	}
	return out
}

// spreadCluster bundles a protocol run for tests.
type spreadCluster struct {
	n       int
	points  []*SpreadPoint[*rskt.Sketch]
	center  *SpreadCenter[*rskt.Sketch]
	enhance bool
}

func newSpreadCluster(t *testing.T, n int, widths []int, m int, seed uint64, enhance bool) *spreadCluster {
	t.Helper()
	params := make(map[int]rskt.Params, len(widths))
	pts := make([]*SpreadPoint[*rskt.Sketch], len(widths))
	for x, w := range widths {
		p := rskt.Params{W: w, M: m, Seed: seed}
		params[x] = p
		sp, err := NewSpreadPoint(x, p)
		if err != nil {
			t.Fatal(err)
		}
		pts[x] = sp
	}
	center, err := NewSpreadCenter(n, params)
	if err != nil {
		t.Fatal(err)
	}
	return &spreadCluster{n: n, points: pts, center: center, enhance: enhance}
}

// runEpoch feeds one epoch of packets and performs the boundary exchange.
func (c *spreadCluster) runEpoch(t *testing.T, k int64, packets [][]pkt) {
	t.Helper()
	for x, ps := range packets {
		for _, p := range ps {
			c.points[x].Record(p.f, p.e)
		}
	}
	for x, pt := range c.points {
		if got := pt.Epoch(); got != k {
			t.Fatalf("point %d at epoch %d, want %d", x, got, k)
		}
		upload := pt.EndEpoch()
		if err := c.center.Receive(x, k, upload); err != nil {
			t.Fatal(err)
		}
	}
	// During epoch k+1 the center pushes the window aggregate (and the
	// optional enhancement); the round trip is assumed < h, so the tests
	// deliver it immediately after the boundary.
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

// idealSpread records the given epoch/point slices into one fresh sketch.
func idealSpread(p rskt.Params, packets [][][]pkt, include func(k, x int) bool) *rskt.Sketch {
	s := rskt.New(p)
	for k := range packets {
		for x := range packets[k] {
			if !include(k, x) {
				continue
			}
			for _, q := range packets[k][x] {
				s.Record(q.f, q.e)
			}
		}
	}
	return s
}

func TestSpreadProtocolMatchesIdealUniform(t *testing.T) {
	// Theorem 6.1: without device diversity, the protocol's C equals an
	// ideal single sketch that recorded the approximate networkwide
	// T-stream — register-for-register.
	const (
		n, p, w, m = 5, 3, 64, 32
		epochs     = 9
	)
	packets := genEpochPackets(p, epochs, 40, 30, 7)
	c := newSpreadCluster(t, n, []int{w, w, w}, m, 99, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
		kNext := k + 1 // the epoch we just rolled into
		if kNext <= n {
			continue
		}
		// Query at t = start of epoch kNext. Approximate T-stream:
		// all points, epochs kNext-n+1 .. kNext-2; local, epoch kNext-1.
		for x := range c.points {
			x := x
			want := idealSpread(c.points[x].Params(), packets, func(ek, ex int) bool {
				epoch := ek + 1 // packets index is 0-based
				if epoch >= kNext-n+1 && epoch <= kNext-2 {
					return true
				}
				return epoch == kNext-1 && ex == x
			})
			got := c.points[x].Query(0)
			wantEst := want.Estimate(0)
			if got != wantEst {
				t.Fatalf("epoch %d point %d: protocol estimate %.4f != ideal %.4f",
					kNext, x, got, wantEst)
			}
		}
	}
}

func TestSpreadProtocolAccuracy(t *testing.T) {
	// End-to-end estimates should track the true networkwide spread.
	const (
		n, p   = 5, 3
		epochs = 8
		flows  = 30
	)
	packets := genEpochPackets(p, epochs, flows, 60, 3)
	c := newSpreadCluster(t, n, []int{512, 512, 512}, hll.DefaultM, 5, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	// Ground truth for flow f over the approximate T-stream at point 0.
	truth := make(map[uint64]map[uint64]struct{})
	for ek := range packets {
		epoch := ek + 1
		for ex := range packets[ek] {
			in := epoch >= kNext-n+1 && epoch <= kNext-2 || (epoch == kNext-1 && ex == 0)
			if !in {
				continue
			}
			for _, q := range packets[ek][ex] {
				if truth[q.f] == nil {
					truth[q.f] = make(map[uint64]struct{})
				}
				truth[q.f][q.e] = struct{}{}
			}
		}
	}
	for f := uint64(0); f < flows; f++ {
		got := c.points[0].Query(f)
		want := float64(len(truth[f]))
		if math.Abs(got-want) > 0.5*want+20 {
			t.Fatalf("flow %d: estimate %.0f, truth %.0f", f, got, want)
		}
	}
}

func TestSpreadDiversityProtocolRuns(t *testing.T) {
	// Device diversity: widths 64/128/256. The protocol must run and the
	// mid point's estimates must be sane.
	const (
		n, p   = 5, 3
		epochs = 8
		flows  = 20
	)
	packets := genEpochPackets(p, epochs, flows, 40, 11)
	c := newSpreadCluster(t, n, []int{64, 128, 256}, 64, 13, false)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	truth := make(map[uint64]map[uint64]struct{})
	for ek := range packets {
		epoch := ek + 1
		for ex := range packets[ek] {
			if epoch >= kNext-n+1 && epoch <= kNext-2 || (epoch == kNext-1 && ex == 1) {
				for _, q := range packets[ek][ex] {
					if truth[q.f] == nil {
						truth[q.f] = make(map[uint64]struct{})
					}
					truth[q.f][q.e] = struct{}{}
				}
			}
		}
	}
	for f := uint64(0); f < flows; f++ {
		got := c.points[1].Query(f)
		want := float64(len(truth[f]))
		if math.Abs(got-want) > 0.75*want+30 {
			t.Fatalf("flow %d at v1: estimate %.0f, truth %.0f", f, got, want)
		}
	}
}

func TestSpreadEnhancementTightensWindow(t *testing.T) {
	// With the Section IV-D enhancement, C additionally covers the peers'
	// last completed epoch: C must equal the ideal sketch over
	// all-points epochs kNext-n+1 .. kNext-1.
	const (
		n, p, w, m = 5, 3, 64, 32
		epochs     = 9
	)
	packets := genEpochPackets(p, epochs, 30, 25, 21)
	c := newSpreadCluster(t, n, []int{w, w, w}, m, 77, true)
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	kNext := epochs + 1
	for x := range c.points {
		x := x
		want := idealSpread(c.points[x].Params(), packets, func(ek, ex int) bool {
			epoch := ek + 1
			return epoch >= kNext-n+1 && epoch <= kNext-1
		})
		for f := uint64(0); f < 30; f++ {
			if got, wantEst := c.points[x].Query(f), want.Estimate(f); got != wantEst {
				t.Fatalf("point %d flow %d: enhanced estimate %.4f != ideal %.4f", x, f, got, wantEst)
			}
		}
	}
}

func TestSpreadCenterValidation(t *testing.T) {
	good := rskt.Params{W: 8, M: 16, Seed: 1}
	if _, err := NewSpreadCenter(2, map[int]rskt.Params{0: good}); err == nil {
		t.Fatal("expected error for n < 3")
	}
	if _, err := NewSpreadCenter(5, nil); err == nil {
		t.Fatal("expected error for empty cluster")
	}
	bad := map[int]rskt.Params{0: good, 1: {W: 8, M: 32, Seed: 1}}
	if _, err := NewSpreadCenter(5, bad); err == nil {
		t.Fatal("expected error for mismatched M")
	}
	nondiv := map[int]rskt.Params{0: {W: 3, M: 16, Seed: 1}, 1: {W: 8, M: 16, Seed: 1}}
	if _, err := NewSpreadCenter(5, nondiv); err == nil {
		t.Fatal("expected error for non-dividing widths")
	}
}

func TestSpreadCenterReceiveErrors(t *testing.T) {
	params := rskt.Params{W: 8, M: 16, Seed: 1}
	center, err := NewSpreadCenter(5, map[int]rskt.Params{0: params})
	if err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(9, 1, rskt.New(params)); err == nil {
		t.Fatal("expected unknown-point error")
	}
	wrong := rskt.New(rskt.Params{W: 16, M: 16, Seed: 1})
	if err := center.Receive(0, 1, wrong); err == nil {
		t.Fatal("expected parameter-mismatch error")
	}
	if err := center.Receive(0, 1, rskt.New(params)); err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(0, 1, rskt.New(params)); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("duplicate upload: got %v, want ErrDuplicateUpload", err)
	}
	// Spread uploads are independent per epoch: late, out-of-order arrivals
	// fill window holes instead of erroring.
	if err := center.Receive(0, 4, rskt.New(params)); err != nil {
		t.Fatal(err)
	}
	if err := center.Receive(0, 2, rskt.New(params)); err != nil {
		t.Fatal(err)
	}
	if got := center.LastEpoch(0); got != 4 {
		t.Fatalf("LastEpoch = %d, want 4", got)
	}
}

func TestSpreadAggregateNilAtStartup(t *testing.T) {
	params := rskt.Params{W: 8, M: 16, Seed: 1}
	center, err := NewSpreadCenter(5, map[int]rskt.Params{0: params})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := center.AggregateFor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg != nil {
		t.Fatal("expected nil aggregate before any upload")
	}
	pt, err := NewSpreadPoint(0, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.ApplyAggregateCovAt(1, nil, 0); err != nil {
		t.Fatal("nil aggregate must be a no-op")
	}
	if err := pt.ApplyEnhancementAt(1, nil); err != nil {
		t.Fatal("nil enhancement must be a no-op")
	}
}

func TestSpreadPointEpochAdvances(t *testing.T) {
	pt, err := NewSpreadPoint(0, rskt.Params{W: 4, M: 8, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Epoch() != 1 {
		t.Fatalf("fresh point epoch = %d, want 1", pt.Epoch())
	}
	pt.Record(1, 2)
	up := pt.EndEpoch()
	if pt.Epoch() != 2 {
		t.Fatalf("after EndEpoch epoch = %d, want 2", pt.Epoch())
	}
	if up.Estimate(1) <= 0 {
		t.Fatal("upload should contain the recorded packet")
	}
	// After the first boundary C holds epoch 1's data (it came from C').
	if pt.Query(1) <= 0 {
		t.Fatal("C should hold the first epoch's data after rollover")
	}
}
