package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// runOpts is one benchmark run of one workload.
type runOpts struct {
	spec    spec
	seed    int64
	seconds float64
	// setups is how many times the whole set-up (trace generation, boot,
	// preload, warm-up) runs; setup_s is their median and the last one
	// stays up for the measurement.
	setups int
	// workDir holds the centers' stores; each set-up gets its own
	// subdirectory, removed at tear-down.
	workDir string
	// tracePath, when set, makes the run a traced one and names the file
	// its span list is written to.
	tracePath string
}

// result is what one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"ops_attempted"`
	Failed    int64             `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Extra holds numbers that are printed but neither gated nor part of
	// the layer model: round_frac_h, schedule lateness, sample bookkeeping.
	Extra map[string]metric `json:"extra,omitempty"`
}

// ops counts operations against failures (wrong or partial answers, stale
// aggregates, late pushes, rounds longer than h, RPC errors).
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

func (o *ops) fail(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.msgs) < 10 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// loadGoroutines generator goroutines feed the points, each owning an
// equal share of them. The benchmark is sized for a 2-core box.
func loadGoroutines() int { return min(2, runtime.NumCPU()) }

// liveAnswer is one center answer recorded while its window was live, to
// be compared with the historical replay of the same window later.
type liveAnswer struct {
	flow uint64
	k    int64
	est  float64
}

// bench is one set-up: generated input, a live cluster and the epoch
// clock, plus everything measured on it.
type bench struct {
	o    runOpts
	s    spec
	ring *ring
	c    *cluster
	rng  *rand.Rand
	// flows are the labels queries draw from: the heaviest flows of the
	// first generated epoch followed by a random sample of the rest.
	flows []uint64
	k     int64 // last epoch ended on every point
	ops   ops
	tr    *tracer

	ingestMpps, queryUs, roundMs   samples
	histColdMs, histSlideMs, rpcUs samples
	lateMs                         samples
	live                           []liveAnswer
	latePushes                     int64
	are                            float64 // worst ARE seen by verifyARE

	// histReady is the newest epoch whose cells are all in the store; the
	// concurrent history client never reads past it.
	histReady atomic.Int64
}

// setUp generates the input, boots the cluster and runs the untimed
// epochs: preload (store fill) then warm-up.
func setUp(o runOpts, n int) (*bench, error) {
	b := &bench{o: o, s: o.spec, rng: rand.New(rand.NewSource(o.seed ^ 0x7175657279))}
	var err error
	if b.ring, err = genRing(o.spec, o.seed); err != nil {
		return nil, err
	}
	b.pickFlows()
	dir := filepath.Join(o.workDir, fmt.Sprintf("store-%d", n))
	if b.c, err = boot(o.spec, uint64(o.seed), dir, o.tracePath != ""); err != nil {
		return nil, err
	}
	for i := 0; i < b.s.preload+warmupEpochs; i++ {
		b.epoch(false)
	}
	return b, nil
}

// pickFlows samples the query flows from the generated packets only (the
// benchmark knows nothing about the trace beyond what the program sees).
func (b *bench) pickFlows() {
	count := map[uint64]int{}
	for _, ps := range b.ring[0] {
		for _, p := range ps {
			count[p.Flow]++
		}
	}
	all := make([]uint64, 0, len(count))
	for f := range count {
		all = append(all, f)
	}
	// Deterministic order before sampling: map iteration is random.
	slices.Sort(all)
	b.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	heavy := topFlows(count, 64)
	b.flows = append(heavy, all[:min(len(all), 448)]...)
}

func (b *bench) flow() uint64 { return b.flows[b.rng.Intn(len(b.flows))] }

// localQuery is the networkwide T-query a user issues at point x.
func (b *bench) localQuery(x int, f uint64) (float64, core.Coverage, error) {
	if b.s.kind == transport.KindSize {
		v, cov, err := b.c.points[x].QuerySizeWithCoverage(f)
		return float64(v), cov, err
	}
	return b.c.points[x].QuerySpreadWithCoverage(f)
}

// queryBatch times queryBatch back-to-back local queries at point x and
// returns the mean latency of one, in microseconds.
func (b *bench) queryBatch(x int, flows []uint64) float64 {
	bad := 0
	t0 := time.Now()
	for _, f := range flows {
		_, cov, err := b.localQuery(x, f)
		if err != nil || !cov.Full() {
			bad++
		}
	}
	d := time.Since(t0)
	b.ops.attempted.Add(int64(len(flows)))
	for ; bad > 0; bad-- {
		b.ops.fail("local query at point %d: error or partial coverage", x)
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(len(flows))
}

// ingest replays one epoch's packets into the points in batches, the way
// tqpoint replays a trace, and returns the aggregate record rate in
// Mpkt/s: each generator goroutine's packets over its own elapsed time,
// summed (the harness's goroutine start-up is not the program's time).
// Every queryEvery packets the feeding goroutine issues one batch of local
// queries: reads beside writes, inside the measured time.
func (b *bench) ingest(pk [][]core.SpreadPacket, timed bool) float64 {
	g := loadGoroutines()
	perG := make([]samples, g)
	rate := make([]float64, g)
	// Query flows are drawn before the clock starts.
	qf := make([][]uint64, g)
	for i := range qf {
		for x := i; x < len(pk); x += g {
			for n := len(pk[x]) / queryEvery * queryBatch; n > 0; n-- {
				qf[i] = append(qf[i], b.flow())
			}
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flows, n := qf[i], 0
			t0 := time.Now()
			for x := i; x < len(pk); x += g {
				ps, pc := pk[x], b.c.points[x]
				n += len(ps)
				for off := 0; off < len(ps); off += recordBatch {
					end := min(off+recordBatch, len(ps))
					pc.RecordBatch(ps[off:end])
					if end%queryEvery == 0 && len(flows) >= queryBatch {
						perG[i].add(b.queryBatch(x, flows[:queryBatch]))
						flows = flows[queryBatch:]
					}
				}
			}
			rate[i] = float64(n) / time.Since(t0).Seconds() / 1e6
		}(i)
	}
	wg.Wait()
	if timed {
		for _, s := range perG {
			b.queryUs = append(b.queryUs, s...)
		}
	}
	total := 0.0
	for _, r := range rate {
		total += r
	}
	return total
}

// round ends epoch k on every point and waits until every point has
// applied the push the center answers with: the paper's boundary round.
func (b *bench) round(k int64, timed bool) time.Duration {
	for _, l := range b.c.links {
		l.firstRead.Store(0)
	}
	t0 := time.Now()
	for x, pc := range b.c.points {
		if err := pc.EndEpoch(); err != nil {
			b.ops.fail("EndEpoch(%d) at point %d: %v", k, x, err)
		}
	}
	for x, pc := range b.c.points {
		if !pc.WaitPushEpoch(k+1, 10*time.Second) {
			b.ops.fail("point %d never applied push %d", x, k+1)
		}
	}
	t2 := time.Now()
	d := t2.Sub(t0)
	if !timed {
		return d
	}
	b.ops.attempted.Add(1)
	if d > nominalH {
		b.ops.fail("round %d took %v, longer than h = %v", k, d, nominalH)
	}
	// A late push or an epoch lag above one means a point would answer
	// from a stale aggregate.
	var late int64
	for x, pc := range b.c.points {
		st := pc.Stats()
		late += st.PushesLate
		if lag := st.Epoch - st.LastPushEpoch; lag > 1 {
			b.ops.fail("point %d answers with epoch lag %d after round %d", x, lag, k)
		}
	}
	if late > b.latePushes {
		b.ops.fail("%d late pushes in round %d", late-b.latePushes, k)
		b.latePushes = late
	}
	b.tr.round(b.c.links, k, t0, t2)
	return d
}

// waitAppends blocks (untimed) until every cell of epochs <= k is in the
// store: appends run off the round's critical path, so the round can
// complete a moment before its last cell lands.
func (b *bench) waitAppends(k int64) {
	want := int64(b.c.children) * k
	deadline := time.Now().Add(10 * time.Second)
	for b.c.center.Stats().StoreAppends < want {
		if time.Now().After(deadline) {
			b.ops.fail("store appends stuck below %d", want)
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
	b.histReady.Store(k)
}

// histQuery times one historical range query over the RPC, in
// milliseconds. A partial or failed answer is a failed operation.
func (b *bench) histQuery(f uint64, from, to int64) float64 {
	t0 := time.Now()
	_, cov, err := b.c.hist.QueryRange(f, from, to)
	d := time.Since(t0)
	b.ops.attempted.Add(1)
	if err != nil || !cov.Full() {
		b.ops.fail("history range [%d,%d]: err=%v coverage=%+v", from, to, err, cov)
	}
	return float64(d.Nanoseconds()) / 1e6
}

// historyInline is the closed-loop history step after round k: a
// cache-missing 16-epoch window, one step of a sliding window onto the
// newest epoch, and an immediate warm repeat (the RPC floor).
func (b *bench) historyInline(k int64, timed bool) {
	b.waitAppends(k)
	b.c.center.ResetReplayCache()
	f := b.flow()
	cold := b.histQuery(f, k-histWindow, k-1)
	slide := b.histQuery(f, k-histWindow+1, k)
	warm := b.histQuery(f, k-histWindow+1, k)
	if timed {
		b.histColdMs.add(cold)
		b.histSlideMs.add(slide)
		b.rpcUs.add(warm * 1e3)
	}
}

// historyClient is the open-loop workload's closed-loop history client:
// one connection, a seeded mix of sweeps. A sweep opens a fresh flow's
// window at a random position (the cold sample), slides it eight steps
// (slide samples) and repeats its last query (warm). Every fourth sweep
// is placed to end on the newest stored epoch.
func (b *bench) historyClient(stop *atomic.Bool, done chan<- struct{}) {
	defer close(done)
	const steps = 8
	rng := rand.New(rand.NewSource(b.o.seed ^ 0x68697374))
	for sweep := 0; !stop.Load(); sweep++ {
		ready := b.histReady.Load()
		newest := ready - histWindow - steps + 1 // the sweep that ends on epoch ready
		a := newest
		if sweep%4 != 3 {
			a = 1 + rng.Int63n(newest-1)
		}
		f := b.flows[rng.Intn(len(b.flows))]
		b.histColdMs.add(b.histQuery(f, a, a+histWindow-1))
		for i := int64(1); i <= steps; i++ {
			b.histSlideMs.add(b.histQuery(f, a+i, a+i+histWindow-1))
		}
		b.rpcUs.add(b.histQuery(f, a+steps, a+steps+histWindow-1) * 1e3)
	}
}

// epoch runs one full cycle: ingest epoch k, the boundary round, local
// queries on the now quiescent points, and (closed loop) the history
// step. Untimed cycles do the same work without recording samples.
func (b *bench) epoch(timed bool) {
	k := b.k + 1
	pk := b.ring.epoch(k)
	if mpps := b.ingest(pk, timed); timed {
		b.ingestMpps.add(mpps)
	}
	rd := b.round(k, timed)
	b.k = k
	if timed {
		b.roundMs.add(float64(rd.Nanoseconds()) / 1e6)
	}
	flows := make([]uint64, queryBatch)
	for i := 0; i < quiescentBatches; i++ {
		for j := range flows {
			flows[j] = b.flow()
		}
		if us := b.queryBatch(b.rng.Intn(b.s.points), flows); timed {
			b.queryUs.add(us)
		}
	}
	if b.s.tick == 0 && k%int64(b.s.histEvery) == 0 && k > histWindow {
		b.historyInline(k, timed)
	}
	if timed && k%8 == 0 && len(b.live) < 64 {
		b.recordLive(k + 1)
	}
}

// recordLive notes the center's live answer for the window pushed during
// epoch k, while that window is still in memory.
func (b *bench) recordLive(k int64) {
	for i := 0; i < 2; i++ {
		f := b.flow()
		est, cov, err := b.c.center.QueryWindowLive(f, k)
		if err != nil || !cov.Full() {
			b.ops.fail("live window answer at epoch %d: err=%v coverage=%+v", k, err, cov)
			continue
		}
		b.live = append(b.live, liveAnswer{f, k, est})
	}
}

// measure runs timed epochs for the configured duration (and at least one
// pass over the ring, which is what the byte count is taken over).
func (b *bench) measure() (wirePerPointEpoch float64) {
	dur := time.Duration(b.o.seconds * float64(time.Second))
	var stop atomic.Bool
	done := make(chan struct{})
	if b.s.tick > 0 {
		b.waitAppends(b.k)
		go b.historyClient(&stop, done)
	} else {
		close(done)
	}
	wire0 := b.c.wireBytes()
	start := time.Now()
	for n := 0; n < ringEpochs || time.Since(start) < dur; n++ {
		if b.s.tick > 0 {
			// Open loop: epoch n is due at start + n*tick whatever happened
			// before; report how late the generator ran.
			due := start.Add(time.Duration(n) * b.s.tick)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			b.lateMs.add(float64(time.Since(due).Nanoseconds()) / 1e6)
			b.waitAppends(b.k)
		}
		b.epoch(true)
		if n == ringEpochs-1 {
			wirePerPointEpoch = float64(b.c.wireBytes()-wire0) / float64(b.s.points*ringEpochs)
		}
	}
	stop.Store(true)
	<-done
	return wirePerPointEpoch
}
