package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/countmin"
)

// Randomized protocol schedules: whatever the workload (flow mix, per-
// epoch packet counts, number of points, window length), the uniform-width
// protocol must stay register-exactly equal to the ideal single sketch
// over the approximate networkwide T-stream (Theorems 6.1/6.3).

type randomSchedule struct {
	n      int // window epochs (3..7)
	points int // 2..4
	epochs int // n+2 .. n+6
	pkts   [][][]pkt
}

func makeSchedule(seed uint64) randomSchedule {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := randomSchedule{
		n:      3 + rng.Intn(5),
		points: 2 + rng.Intn(3),
	}
	s.epochs = s.n + 2 + rng.Intn(5)
	s.pkts = make([][][]pkt, s.epochs)
	for k := range s.pkts {
		s.pkts[k] = make([][]pkt, s.points)
		for x := range s.pkts[k] {
			count := rng.Intn(120) // may be zero: empty epochs happen
			ps := make([]pkt, count)
			for i := range ps {
				ps[i] = pkt{
					f: uint64(rng.Intn(25)),
					e: uint64(rng.Intn(200)),
				}
			}
			s.pkts[k][x] = ps
		}
	}
	return s
}

func TestSpreadProtocolMatchesIdealRandomized(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		sched := makeSchedule(seed)
		widths := make([]int, sched.points)
		for i := range widths {
			widths[i] = 16
		}
		c := newSpreadCluster(t, sched.n, widths, 16, seed, false)
		for k := 1; k <= sched.epochs; k++ {
			c.runEpoch(t, int64(k), sched.pkts[k-1])
		}
		kNext := sched.epochs + 1
		if kNext <= sched.n {
			return true
		}
		for x := range c.points {
			x := x
			want := idealSpread(c.points[x].Params(), sched.pkts, func(ek, ex int) bool {
				epoch := ek + 1
				if epoch >= kNext-sched.n+1 && epoch <= kNext-2 {
					return true
				}
				return epoch == kNext-1 && ex == x
			})
			for f := uint64(0); f < 25; f++ {
				if c.points[x].Query(f) != want.Estimate(f) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeProtocolMatchesIdealRandomized(t *testing.T) {
	err := quick.Check(func(seed uint64, enhance bool) bool {
		sched := makeSchedule(seed ^ 0xabcdef)
		params := make(map[int]countmin.Params, sched.points)
		points := make([]*SizePoint, sched.points)
		for x := range points {
			pr := countmin.Params{D: 3, W: 64, Seed: seed}
			params[x] = pr
			pt, err := NewSizePoint(x, pr, SizeModeCumulative)
			if err != nil {
				t.Fatal(err)
			}
			points[x] = pt
		}
		center, err := NewSizeCenter(sched.n, params, SizeModeCumulative)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= sched.epochs; k++ {
			for x, ps := range sched.pkts[k-1] {
				for _, p := range ps {
					points[x].Record(p.f)
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
				if enhance {
					enh, err := center.EnhancementFor(x, int64(k)+1)
					if err != nil {
						t.Fatal(err)
					}
					if err := pt.ApplyEnhancementAt(int64(k)+1, enh); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		kNext := sched.epochs + 1
		if kNext <= sched.n {
			return true
		}
		for x := range points {
			x := x
			lastPeerEpoch := kNext - 2
			if enhance {
				lastPeerEpoch = kNext - 1
			}
			ideal := countmin.New(params[x])
			for ek := range sched.pkts {
				epoch := ek + 1
				for ex := range sched.pkts[ek] {
					in := epoch >= kNext-sched.n+1 &&
						(epoch <= lastPeerEpoch || (epoch == kNext-1 && ex == x))
					if !in {
						continue
					}
					for _, p := range sched.pkts[ek][ex] {
						ideal.Record(p.f, 0)
					}
				}
			}
			for f := uint64(0); f < 25; f++ {
				if points[x].Query(f) != ideal.Estimate(f) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Fatal(err)
	}
}
