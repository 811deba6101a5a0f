package cluster

import (
	"testing"

	"repro/internal/trace"
)

// The concurrent replay (RunParallel / RunParallelWorkers) must answer
// every boundary and final query exactly like the sequential Run for both
// designs: each point's traffic is striped across recorders whose deltas
// reach B/C/C' through the same fold algebra, and the replay flushes its
// pending batches before it crosses an epoch boundary.

type boundaryKey struct {
	k int64
	f uint64
}

// answerSim is the slice of SizeSim / SpreadSim the equality table drives.
type answerSim struct {
	run         func(stream trace.Iterator) error
	runParallel func(stream trace.Iterator, batch int) error
	runWorkers  func(stream trace.Iterator, batch, workers int) error
	onBoundary  func(func(kNext int64) error)
	query       func(x int, f uint64) float64
}

func newTestSizeSim(t *testing.T) answerSim {
	t.Helper()
	sim, err := NewSizeSim(SizeSimConfig{
		Window:     testWindow(),
		MemoryBits: []int{1 << 19, 1 << 19, 1 << 19},
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return answerSim{
		run:         sim.Run,
		runParallel: sim.RunParallel,
		runWorkers:  sim.RunParallelWorkers,
		onBoundary:  func(fn func(int64) error) { sim.OnBoundary = fn },
		query:       func(x int, f uint64) float64 { return float64(sim.QueryProtocol(x, f)) },
	}
}

func newTestSpreadSim(t *testing.T) answerSim {
	t.Helper()
	sim, err := NewSpreadSim(SpreadSimConfig{
		Window:     testWindow(),
		MemoryBits: []int{1 << 19, 1 << 19, 1 << 19},
		M:          32,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return answerSim{
		run:         sim.Run,
		runParallel: sim.RunParallel,
		runWorkers:  sim.RunParallelWorkers,
		onBoundary:  func(fn func(int64) error) { sim.OnBoundary = fn },
		query:       sim.QueryProtocol,
	}
}

// collectAnswers replays packets through run and samples point 1 at every
// boundary and point 0 (mid-epoch, unfolded lanes) at the end.
func collectAnswers(t *testing.T, sim answerSim, packets int, run func(trace.Iterator) error) map[boundaryKey]float64 {
	t.Helper()
	ans := map[boundaryKey]float64{}
	sim.onBoundary(func(kNext int64) error {
		for f := uint64(0); f < 200; f++ {
			ans[boundaryKey{kNext, f}] = sim.query(1, f)
		}
		return nil
	})
	gen, err := trace.NewGenerator(testTrace(packets))
	if err != nil {
		t.Fatal(err)
	}
	if err := run(gen); err != nil {
		t.Fatal(err)
	}
	for f := uint64(0); f < 200; f++ {
		ans[boundaryKey{-1, f}] = sim.query(0, f)
	}
	return ans
}

func TestRunParallelMatchesRun(t *testing.T) {
	designs := map[string]func(*testing.T) answerSim{"size": newTestSizeSim, "spread": newTestSpreadSim}
	for _, tc := range []struct {
		name                    string
		packets, batch, workers int
	}{
		// batch 0 must select DefaultReplayBatch, not "flush on every
		// packet" or "never flush".
		{"default-batch", 120_000, 0, 1},
		{"one-recorder", 100_000, 1000, 1},
		// A flush threshold that is no multiple of anything, four
		// recorders per point.
		{"four-recorders", 120_000, 257, 4},
		// A threshold far above an epoch's packet count: the only flushes
		// are the forced ones at epoch boundaries.
		{"boundary-flush-only", 60_000, 1 << 30, 4},
	} {
		for design, mk := range designs {
			t.Run(tc.name+"/"+design, func(t *testing.T) {
				seq, par := mk(t), mk(t)
				want := collectAnswers(t, seq, tc.packets, seq.run)
				got := collectAnswers(t, par, tc.packets, func(s trace.Iterator) error {
					if tc.workers == 1 {
						return par.runParallel(s, tc.batch)
					}
					return par.runWorkers(s, tc.batch, tc.workers)
				})
				if len(want) == 0 || len(want) != len(got) {
					t.Fatalf("boundary sample counts differ: %d vs %d", len(want), len(got))
				}
				for k, w := range want {
					if g := got[k]; g != w {
						t.Fatalf("epoch %d flow %d: parallel %v, sequential %v", k.k, k.f, g, w)
					}
				}
			})
		}
	}
}
