package core

import (
	"math"
	"testing"

	"repro/internal/vhll"
)

// The three-sketch design is generic over its epoch sketch (the paper:
// "the same design can be easily modified to work with other sketches").
// These tests run the full protocol with vHLL as the epoch sketch.

var _ SpreadSketch[*vhll.Sketch] = (*vhll.Sketch)(nil)

func newVhllCluster(t *testing.T, n int, sizes []int, virtual int, seed uint64) (
	[]*SpreadPoint[*vhll.Sketch], *SpreadCenter[*vhll.Sketch]) {
	t.Helper()
	protos := make(map[int]*vhll.Sketch, len(sizes))
	points := make([]*SpreadPoint[*vhll.Sketch], len(sizes))
	for x, m := range sizes {
		params := vhll.Params{PhysicalRegisters: m, VirtualRegisters: virtual, Seed: seed}
		proto, err := vhll.New(params)
		if err != nil {
			t.Fatal(err)
		}
		protos[x] = proto
		pt, err := NewSpreadPointOf(x, func() *vhll.Sketch {
			s, err := vhll.New(params)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		if err != nil {
			t.Fatal(err)
		}
		points[x] = pt
	}
	center, err := NewSpreadCenterOf(n, protos)
	if err != nil {
		t.Fatal(err)
	}
	return points, center
}

func TestVhllProtocolMatchesIdealUniform(t *testing.T) {
	// Theorem 6.1's equality argument only needs union-mergeability, so it
	// holds for vHLL too: the protocol's C equals the ideal single vHLL
	// over the approximate networkwide T-stream.
	const (
		n, p, m = 5, 3, 1 << 12
		epochs  = 8
		virtual = 64
		seed    = 31
	)
	packets := genEpochPackets(p, epochs, 30, 25, 3)
	points, center := newVhllCluster(t, n, []int{m, m, m}, virtual, seed)
	for k := 1; k <= epochs; k++ {
		for x, ps := range packets[k-1] {
			for _, q := range ps {
				points[x].Record(q.f, q.e)
			}
		}
		for x, pt := range points {
			if err := center.Receive(x, int64(k), pt.EndEpoch()); err != nil {
				t.Fatal(err)
			}
		}
		for x, pt := range points {
			agg, err := center.AggregateFor(x, int64(k)+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.ApplyAggregateCovAt(int64(k)+1, agg, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kNext := epochs + 1
	for x := range points {
		x := x
		ideal, err := vhll.New(vhll.Params{PhysicalRegisters: m, VirtualRegisters: virtual, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for ek := range packets {
			epoch := ek + 1
			for ex := range packets[ek] {
				in := epoch >= kNext-n+1 && epoch <= kNext-2 || (epoch == kNext-1 && ex == x)
				if !in {
					continue
				}
				for _, q := range packets[ek][ex] {
					ideal.Record(q.f, q.e)
				}
			}
		}
		for f := uint64(0); f < 30; f++ {
			if got, want := points[x].Query(f), ideal.Estimate(f); got != want {
				t.Fatalf("point %d flow %d: vHLL protocol %.4f != ideal %.4f", x, f, got, want)
			}
		}
	}
}

func TestVhllProtocolDiversityAccuracy(t *testing.T) {
	// Device diversity with vHLL: power-of-two physical sizes join via
	// the same expand-and-compress, and estimates stay in the right
	// ballpark at every point.
	const (
		n, p    = 5, 3
		epochs  = 8
		virtual = 64
		seed    = 17
	)
	packets := genEpochPackets(p, epochs, 20, 40, 9)
	points, center := newVhllCluster(t, n, []int{1 << 12, 1 << 13, 1 << 14}, virtual, seed)
	for k := 1; k <= epochs; k++ {
		for x, ps := range packets[k-1] {
			for _, q := range ps {
				points[x].Record(q.f, q.e)
			}
		}
		for x, pt := range points {
			if err := center.Receive(x, int64(k), pt.EndEpoch()); err != nil {
				t.Fatal(err)
			}
		}
		for x, pt := range points {
			agg, err := center.AggregateFor(x, int64(k)+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.ApplyAggregateCovAt(int64(k)+1, agg, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kNext := epochs + 1
	truth := make(map[uint64]map[uint64]struct{})
	for ek := range packets {
		epoch := ek + 1
		for ex := range packets[ek] {
			if epoch >= kNext-n+1 && epoch <= kNext-2 || (epoch == kNext-1 && ex == 0) {
				for _, q := range packets[ek][ex] {
					if truth[q.f] == nil {
						truth[q.f] = make(map[uint64]struct{})
					}
					truth[q.f][q.e] = struct{}{}
				}
			}
		}
	}
	for f := uint64(0); f < 20; f++ {
		got := points[0].Query(f)
		want := float64(len(truth[f]))
		if math.Abs(got-want) > 0.8*want+40 {
			t.Fatalf("flow %d: vHLL diversity estimate %.0f, truth %.0f", f, got, want)
		}
	}
}

func TestGenericConstructorValidation(t *testing.T) {
	if _, err := NewSpreadPointOf[*vhll.Sketch](0, nil); err == nil {
		t.Fatal("expected error for nil constructor")
	}
	if _, err := NewSpreadCenterOf[*vhll.Sketch](5, map[int]*vhll.Sketch{0: nil}); err == nil {
		t.Fatal("expected error for nil prototype")
	}
	a, err := vhll.New(vhll.Params{PhysicalRegisters: 64, VirtualRegisters: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vhll.New(vhll.Params{PhysicalRegisters: 64, VirtualRegisters: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpreadCenterOf(5, map[int]*vhll.Sketch{0: a, 1: b}); err == nil {
		t.Fatal("expected incompatibility error (different virtual sizes)")
	}
	c, err := vhll.New(vhll.Params{PhysicalRegisters: 96, VirtualRegisters: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpreadCenterOf(5, map[int]*vhll.Sketch{0: a, 1: c}); err == nil {
		t.Fatal("expected non-dividing width error")
	}
	if _, err := NewPoint(0, a.Clone, EngineConfig[*vhll.Sketch]{Design: "spread", Mode: ModeCumulative}); err == nil {
		t.Fatal("expected error for cumulative uploads under a non-additive merge")
	}
}
