package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/cputime"
	"repro/internal/hll"
	"repro/internal/rskt"
	"repro/internal/slidingsketch"
	"repro/internal/vate"
)

// ThroughputResult is the regenerated Table II: the online packet-recording
// rate of each method in packets per second. The paper's designs record
// into their two or three local sketches; the baselines record into their
// own local structure. (All methods record locally — the difference the
// table shows is the per-packet datapath cost.)
//
// The Parallel rates measure Workers goroutines (GOMAXPROCS) feeding one
// point through Point.RecordBatch, i.e. sharing its lanes.
type ThroughputResult struct {
	TwoSketchPPS     float64
	SlidingSketchPPS float64
	ThreeSketchPPS   float64
	VATEPPS          float64

	// Workers is the goroutine count of the parallel measurements.
	Workers int
	// TwoSketchParallelPPS is the aggregate rate of Workers goroutines
	// batch-recording into one size point.
	TwoSketchParallelPPS float64
	// ThreeSketchParallelPPS is the same for one spread point.
	ThreeSketchParallelPPS float64

	// PipelineScaling is the private-recorder scaling curve (one
	// core.Recorder per worker): one row per worker count, rates
	// CPU-projected from per-worker thread CPU time so the curve is
	// meaningful even on a core-limited box (see timePipelineWorkers).
	PipelineScaling []PipelineScalingRow
}

// PipelineScalingRow is one worker count of the pipeline scaling curve.
type PipelineScalingRow struct {
	Workers int
	// TwoSketchPPS / ThreeSketchPPS are the aggregate recorder ingest
	// rates for the two designs at this worker count.
	TwoSketchPPS   float64
	ThreeSketchPPS float64
	// CPUProjected tells whether the rates come from per-worker thread
	// CPU time (true, Linux) or degraded to wall clock (false).
	CPUProjected bool
}

// throughputPackets is the number of packets each method is timed over.
const throughputPackets = 1_000_000

// pipelineBatch is the RecordBatch size of the pipeline rows.
const pipelineBatch = 256

// RunThroughput measures Table II.
func RunThroughput(cfg Config) (ThroughputResult, error) {
	var out ThroughputResult
	seed := cfg.Seed
	mem := cfg.scaledMem(2)
	n := cfg.Window.N

	// Pre-generate the packet workload so generation cost is excluded.
	flows := make([]uint64, throughputPackets)
	elems := make([]uint64, throughputPackets)
	rng := uint64(88172645463325252)
	for i := range flows {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		flows[i] = rng % 10_000
		elems[i] = rng >> 32
	}

	sizeParams := countmin.Params{
		D:    countmin.DefaultDepth,
		W:    countmin.WidthForMemory(mem, countmin.DefaultDepth),
		Seed: seed,
	}
	sizePt, err := core.NewSizePoint(0, sizeParams, core.SizeModeCumulative)
	if err != nil {
		return out, err
	}
	out.TwoSketchPPS = timeRecords(func(i int) {
		sizePt.Record(flows[i])
	})

	spreadParams := rskt.Params{
		W: rskt.WidthForMemory(mem, hll.DefaultM), M: hll.DefaultM, Seed: seed,
	}
	spreadPt, err := core.NewSpreadPoint(0, spreadParams)
	if err != nil {
		return out, err
	}
	out.ThreeSketchPPS = timeRecords(func(i int) {
		spreadPt.Record(flows[i], elems[i])
	})

	// Parallel ingest: fresh points (so the sequential timings above are
	// undisturbed), GOMAXPROCS workers pulling chunk ranges off a shared
	// counter and feeding them through RecordBatch.
	out.Workers = runtime.GOMAXPROCS(0)
	sizeParPt, err := core.NewSizePoint(1, sizeParams, core.SizeModeCumulative)
	if err != nil {
		return out, err
	}
	out.TwoSketchParallelPPS = timeParallelRecords(out.Workers, func(lo, hi int) {
		sizeParPt.RecordBatch(flows[lo:hi])
	})
	spreadParPt, err := core.NewSpreadPoint(1, spreadParams)
	if err != nil {
		return out, err
	}
	pkts := make([]core.SpreadPacket, throughputPackets)
	for i := range pkts {
		pkts[i] = core.SpreadPacket{Flow: flows[i], Elem: elems[i]}
	}
	out.ThreeSketchParallelPPS = timeParallelRecords(out.Workers, func(lo, hi int) {
		spreadParPt.RecordBatch(pkts[lo:hi])
	})

	// Recorder scaling curve: fresh points per row so each worker count
	// starts from cold sketches, 1, 2, 4, ... workers each owning a private
	// Recorder and feeding it a contiguous stripe of the workload in
	// pipelineBatch-packet batches.
	maxW := cfg.Workers
	if maxW <= 0 {
		maxW = 8
	}
	for w := 1; w <= maxW; w *= 2 {
		row := PipelineScalingRow{Workers: w}
		sizePipePt, err := core.NewSizePoint(2, sizeParams, core.SizeModeCumulative)
		if err != nil {
			return out, err
		}
		row.TwoSketchPPS, row.CPUProjected = timePipelineWorkers(w, func(worker, workers int) {
			feedRecorder(sizePipePt.Point, pkts, worker, workers) // the size design ignores Elem
		})
		spreadPipePt, err := core.NewSpreadPoint(2, spreadParams)
		if err != nil {
			return out, err
		}
		row.ThreeSketchPPS, _ = timePipelineWorkers(w, func(worker, workers int) {
			feedRecorder(spreadPipePt.Point, pkts, worker, workers)
		})
		out.PipelineScaling = append(out.PipelineScaling, row)
	}

	sliding := slidingsketch.New(slidingsketch.Params{
		D:     slidingsketch.DefaultDepth,
		W:     slidingsketch.WidthForMemory(mem, slidingsketch.DefaultDepth, n),
		Zones: n,
		Seed:  seed,
	})
	out.SlidingSketchPPS = timeRecords(func(i int) {
		sliding.Record(flows[i])
	})

	vt := vate.New(vate.Params{
		VirtualBits:   vate.DefaultVirtualBits,
		PhysicalCells: vate.CellsForMemory(mem, n),
		WindowN:       n,
		Seed:          seed,
	})
	out.VATEPPS = timeRecords(func(i int) {
		vt.Record(flows[i], elems[i])
	})
	return out, nil
}

// timeRecords returns the packets-per-second rate of the record function.
func timeRecords(record func(i int)) float64 {
	start := time.Now()
	for i := 0; i < throughputPackets; i++ {
		record(i)
	}
	elapsed := time.Since(start)
	return float64(throughputPackets) / elapsed.Seconds()
}

// feedRecorder records worker's stripe of ps through a private Recorder
// in pipelineBatch-packet batches.
func feedRecorder[S core.Sketch[S]](pt *core.Point[S], ps []core.SpreadPacket, worker, workers int) {
	rec := pt.NewRecorder()
	defer rec.Close()
	lo, hi := stripeOf(worker, workers, len(ps))
	for ; lo < hi; lo += pipelineBatch {
		rec.RecordBatch(ps[lo:min(lo+pipelineBatch, hi)])
	}
}

// stripeOf splits [0, n) into `workers` near-equal contiguous ranges and
// returns worker's.
func stripeOf(worker, workers, n int) (lo, hi int) {
	stripe := n / workers
	lo = worker * stripe
	hi = lo + stripe
	if worker == workers-1 {
		hi = n
	}
	return lo, hi
}

// timePipelineWorkers measures the aggregate rate of `workers`
// goroutines, each feeding its stripe of the workload.
// On a core-limited box wall clock cannot show parallel speedup (the OS
// timeslices the workers over the same cores), so each worker is pinned
// to an OS thread and timed with its thread CPU clock: the projected
// aggregate rate is total packets over the slowest worker's CPU time —
// exactly the wall-clock aggregate a box with `workers` free cores would
// see, and a direct readout of whether per-packet cost is independent of
// the worker count. Falls back to wall
// clock (reported via the second return) where the thread clock is
// unavailable.
func timePipelineWorkers(workers int, feed func(worker, workers int)) (float64, bool) {
	if workers < 1 {
		workers = 1
	}
	cpu := make([]time.Duration, workers)
	cpuOK := make([]bool, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			c0, ok0 := cputime.Thread()
			feed(w, workers)
			c1, ok1 := cputime.Thread()
			cpu[w], cpuOK[w] = c1-c0, ok0 && ok1
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	var worst time.Duration
	for w := range cpu {
		if !cpuOK[w] || cpu[w] <= 0 {
			return float64(throughputPackets) / wall.Seconds(), false
		}
		if cpu[w] > worst {
			worst = cpu[w]
		}
	}
	return float64(throughputPackets) / worst.Seconds(), true
}

// parallelChunk is the packet count each worker claims per batch in the
// parallel throughput measurement.
const parallelChunk = 4096

// timeParallelRecords returns the aggregate packets-per-second rate of
// `workers` goroutines, each repeatedly claiming a [lo, hi) chunk of the
// workload off a shared counter and recording it as one batch.
func timeParallelRecords(workers int, recordRange func(lo, hi int)) float64 {
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(parallelChunk)) - parallelChunk
				if lo >= throughputPackets {
					return
				}
				hi := lo + parallelChunk
				if hi > throughputPackets {
					hi = throughputPackets
				}
				recordRange(lo, hi)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(throughputPackets) / elapsed.Seconds()
}
