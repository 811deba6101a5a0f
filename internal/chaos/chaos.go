// Package chaos is a deterministic, seed-driven chaos engine for the
// networkwide T-query transport. One Run deploys a randomized topology
// (flat, 2–3 level relay tree, flow-sharded centers, or a tree of
// shards) over an in-memory faultnet fabric, then alternates fault
// phases — 2–3 simultaneous faults drawn from the seeded schedule (link
// cuts, dial failures, held directions, half-open peers, node
// partitions, crash-and-restart-from-checkpoint) — with heal-and-settle
// phases, until the schedule has injected at least MinFaults faults.
//
// After every settle the engine asserts the three properties the design
// promises under partial failure:
//
//  1. Exactness: every leaf's window queries equal an ideal sketch fed
//     the same trace — bit-identical estimates, not approximations.
//  2. Coverage algebra: every leaf reports full coverage, i.e. the
//     merged point-epoch set equals the schedule-derived survivor set
//     (all faults are transient or durable, so nothing may be lost).
//  3. Liveness: every component reaches the next push epoch within the
//     watchdog bound after heal — nobody stays wedged.
//
// Everything is derived from Config.Seed: the topology draw, the fault
// schedule, and the traffic trace. A failing run reproduces from its
// seed alone. The package has no testing dependency so cmd/tqchaos can
// drive soak runs from the command line.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/countmin"
	"repro/internal/faultnet"
	"repro/internal/rskt"
	"repro/internal/transport"
	"repro/internal/xhash"
)

// Class selects the deployment shape a run exercises.
type Class string

const (
	// ClassFlat is the paper's deployment: every point dials the center.
	ClassFlat Class = "flat"
	// ClassTree draws a random 2–3 level aggregation tree
	// (cluster.RandomTopology) with relays between points and center.
	ClassTree Class = "tree"
	// ClassShard splits the center into flow-space shards, each point
	// holding one connection per shard.
	ClassShard Class = "shard"
	// ClassTreeShard puts an aggregation relay in front of every shard:
	// point → relay → shard center.
	ClassTreeShard Class = "treeshard"
)

// Classes lists every deployment class, in scheduling order.
var Classes = []Class{ClassFlat, ClassTree, ClassShard, ClassTreeShard}

// Config parameterizes one chaos run. Zero values select the defaults
// noted on each field; only Seed has no default on purpose — the caller
// must choose the universe.
type Config struct {
	// Seed drives everything: topology draw, fault schedule, faultnet
	// jitter. Two runs with equal Config are identical.
	Seed int64
	// Kind selects the size or spread design (default spread).
	Kind transport.Kind
	// Class selects the topology (default ClassFlat).
	Class Class
	// Phases is the minimum number of fault phases (default 8). The run
	// keeps adding phases until MinFaults is also met.
	Phases int
	// MinFaults is the minimum number of injected faults (default 25).
	MinFaults int
	// MaxHalfOpen caps half-open faults per run (default 2). Half-open
	// peers are detected by real-time deadlines, so each one costs wall
	// clock where every other fault is logical-time only.
	MaxHalfOpen int
	// Watchdog bounds every liveness wait during settle (default 30s).
	// Exceeding it is a verdict — some component is wedged — not a flake.
	Watchdog time.Duration
	// Logf receives phase-by-phase progress (default: discard).
	Logf func(format string, args ...any)
}

// Result summarizes a completed run.
type Result struct {
	// Epochs is the number of cluster epochs the deployment survived.
	Epochs int64
	// Phases is the number of fault phases executed.
	Phases int
	// Faults is the total number of injected faults.
	Faults int
	// FaultKinds counts injections by fault kind.
	FaultKinds map[string]int
	// Checks is the number of full exactness+coverage audits passed.
	Checks int
}

// Trace parameters: small enough that one epoch is cheap, rich enough
// that every flow exercises several sketch rows.
const (
	chaosFlows = 6
	chaosReps  = 10
)

// trace generates point x's deterministic packets for epoch k — the
// same generator feeds the live deployment and the oracle sketches.
func trace(k, x int, fn func(f, e uint64)) {
	for f := uint64(0); f < chaosFlows; f++ {
		for i := 0; i < chaosReps; i++ {
			el := xhash.Hash64(uint64(k*1000+x*100+i), f) % 48
			fn(f, f<<32|el)
		}
	}
}

// Run executes one chaos run and reports how much abuse the deployment
// absorbed. A non-nil error is a real finding (an exactness, coverage,
// or liveness violation, reproducible from cfg.Seed), never a flake:
// every wait is watchdog-bounded and every fault is healed before the
// settle that asserts recovery.
func Run(cfg Config) (Result, error) {
	if cfg.Kind == "" {
		cfg.Kind = transport.KindSpread
	}
	if cfg.Class == "" {
		cfg.Class = ClassFlat
	}
	if cfg.Phases == 0 {
		cfg.Phases = 8
	}
	if cfg.MinFaults == 0 {
		cfg.MinFaults = 25
	}
	if cfg.MaxHalfOpen == 0 {
		cfg.MaxHalfOpen = 2
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &deployment{cfg: cfg, fnet: faultnet.New(cfg.Seed)}
	tmp, err := os.MkdirTemp("", "tqchaos-*")
	if err != nil {
		return Result{}, fmt.Errorf("chaos: tmpdir: %w", err)
	}
	d.tmpDir = tmp
	defer d.close()

	switch cfg.Class {
	case ClassFlat:
		err = buildFlat(d)
	case ClassTree:
		// Redraw until some point actually sits under a relay, so the
		// class always exercises the relay tier (an empty topology is
		// ClassFlat's job). The draw consumes rng deterministically.
		topo := cluster.RandomTopology(rng, chaosPoints)
		for i := 0; len(topo) == 0 && i < 32; i++ {
			topo = cluster.RandomTopology(rng, chaosPoints)
		}
		if len(topo) == 0 {
			return Result{}, fmt.Errorf("chaos: seed %d never drew a relay topology", cfg.Seed)
		}
		err = buildTree(d, topo)
	case ClassShard:
		err = buildShard(d, false)
	case ClassTreeShard:
		err = buildShard(d, true)
	default:
		err = fmt.Errorf("chaos: unknown class %q", cfg.Class)
	}
	if err != nil {
		return Result{}, err
	}

	e := &engine{cfg: cfg, d: d, rng: rng, res: Result{FaultKinds: map[string]int{}}}
	err = e.run()
	return e.res, err
}

// engine drives one deployment through the fault/heal/settle loop.
type engine struct {
	cfg Config
	d   *deployment
	rng *rand.Rand
	// epoch counts cluster epochs ended so far; every leaf's clock is
	// advanced in lockstep, so there is one logical epoch.
	epoch     int
	halfOpens int
	res       Result
}

func (e *engine) run() error {
	// Prime a full window fault-free so the first fault phase starts
	// from full coverage (the algebra below epoch n is start-up, not
	// recovery).
	if err := e.settle(chaosWindowN); err != nil {
		return fmt.Errorf("chaos: warmup: %w", err)
	}
	if err := e.audit("warmup"); err != nil {
		return err
	}
	for phase := 0; phase < e.cfg.Phases || e.res.Faults < e.cfg.MinFaults; phase++ {
		faults := e.schedule()
		for _, f := range faults {
			e.cfg.Logf("chaos: phase %d: inject %s", phase, f.kind)
			f.apply()
			e.res.Faults++
			e.res.FaultKinds[f.kind]++
		}
		// Keep the epoch clock running through the outage. EndEpoch
		// errors are expected here — severed leaves buffer and
		// retransmit after heal. The span stays well under the window,
		// so no retransmit buffer overflows.
		for i, nf := 0, 2+e.rng.Intn(2); i < nf; i++ {
			e.advanceLossy()
		}
		if err := e.heal(faults); err != nil {
			return fmt.Errorf("chaos: phase %d: %w", phase, err)
		}
		if err := e.settle(chaosWindowN + 2); err != nil {
			return fmt.Errorf("chaos: phase %d: %w", phase, err)
		}
		if err := e.audit(fmt.Sprintf("phase %d", phase)); err != nil {
			return err
		}
		e.res.Phases++
	}
	return nil
}

// advanceLossy ends one epoch while faults are live: records the trace,
// ends the epoch on every leaf, and tolerates the failures the schedule
// just provoked.
func (e *engine) advanceLossy() {
	k := e.epoch + 1
	for x, ln := range e.d.leaves {
		trace(k, x, ln.client.Record)
	}
	for x, ln := range e.d.leaves {
		if err := ln.client.EndEpoch(); err != nil {
			e.cfg.Logf("chaos: epoch %d: leaf %d lossy EndEpoch: %v", k, x, err)
		}
	}
	e.epoch = k
	e.res.Epochs = int64(k)
}

// heal releases every fault (partitions first, then restarts top-down,
// then held directions) and redials every leaf, restoring a fully
// connected fabric. Ordering matters: a relay restart dials upstream at
// startup, so its parent must be back first.
func (e *engine) heal(faults []fault) error {
	for prio := 0; prio <= healHolds; prio++ {
		for _, f := range faults {
			if f.heal != nil && f.prio == prio {
				if err := f.heal(); err != nil {
					return err
				}
			}
		}
	}
	for x, ln := range e.d.leaves {
		if err := ln.client.Redial(); err != nil {
			return fmt.Errorf("heal: leaf %d redial: %w", x, err)
		}
	}
	return nil
}

// settle runs count healthy epochs with every wait watchdog-bounded.
// Each epoch must complete end-to-end: all leaves end epoch k, every
// root pushes the round serving epoch k+1 (a round over epoch-k uploads
// carries ForEpoch k+1), and every leaf receives it. A timeout is a
// liveness verdict naming the wedged component.
func (e *engine) settle(count int) error {
	for i := 0; i < count; i++ {
		k := e.epoch + 1
		for x, ln := range e.d.leaves {
			trace(k, x, ln.client.Record)
		}
		for x, ln := range e.d.leaves {
			if err := ln.client.EndEpoch(); err != nil {
				// One recovery retry: a half-open connection that the
				// heal redial considered healthy reveals itself here via
				// a write deadline. Redial replaces it; a second failure
				// is a real liveness bug.
				if rerr := ln.client.Redial(); rerr != nil {
					return fmt.Errorf("settle epoch %d: leaf %d redial after %v: %w", k, x, err, rerr)
				}
				if err2 := ln.client.EndEpoch(); err2 != nil {
					return fmt.Errorf("settle epoch %d: leaf %d EndEpoch after redial: %w", k, x, err2)
				}
			}
		}
		e.epoch = k
		e.res.Epochs = int64(k)
		for _, r := range e.d.roots {
			if !r.srv.WaitPushEpoch(int64(k)+1, e.cfg.Watchdog) {
				return fmt.Errorf("liveness: %s wedged: no push round for epoch %d within %v", r.name, k+1, e.cfg.Watchdog)
			}
		}
		for x, ln := range e.d.leaves {
			if !ln.client.WaitPushEpoch(int64(k)+1, e.cfg.Watchdog) {
				return fmt.Errorf("liveness: leaf %d wedged: no push for epoch %d within %v", x, k+1, e.cfg.Watchdog)
			}
		}
	}
	return nil
}

// audit asserts the run's hard invariants at the current epoch: full
// coverage on every leaf (the merged set equals the survivor set — all
// faults were transient or durable) and bit-exact query results against
// an oracle sketch fed the same trace.
func (e *engine) audit(label string) error {
	K := e.epoch + 1
	for x, ln := range e.d.leaves {
		cov, err := ln.client.Coverage()
		if err != nil {
			return fmt.Errorf("chaos: %s: leaf %d coverage: %w", label, x, err)
		}
		if !cov.Full() {
			return fmt.Errorf("chaos: %s: leaf %d coverage %d/%d after settle — a survivor epoch was lost",
				label, x, cov.EpochsMerged, cov.EpochsExpected)
		}
		if err := e.oracleCheck(x, ln.client, K); err != nil {
			return fmt.Errorf("chaos: %s: %w", label, err)
		}
	}
	// Time-travel probe: at every root, the retrospective replay from the
	// epoch-log store must reproduce the live windowed answer bit for bit
	// — estimate and coverage — at the newest pushed round. Faults make
	// this interesting: the store was fed through gaps, retransmits,
	// restarts and log-index rebuilds, yet after settle it must agree
	// with the in-memory window exactly.
	for _, r := range e.d.roots {
		if err := e.timeTravelCheck(r); err != nil {
			return fmt.Errorf("chaos: %s: %w", label, err)
		}
	}
	e.res.Checks++
	return nil
}

// timeTravelCheck compares root r's HistoryAt replay against its live
// window at the most recent pushed round. A cell append runs just after
// its upload becomes visible to round accounting (after the push, for the
// upload that completes a round), so the probe retries briefly
// (watchdog-bounded) before calling a mismatch a verdict.
func (e *engine) timeTravelCheck(r *rootNode) error {
	k := r.srv.Stats().LastPushEpoch
	if k < 2 {
		return nil // no completed window yet
	}
	deadline := time.Now().Add(e.cfg.Watchdog)
	for f := uint64(0); f < chaosFlows; f++ {
		want, wantCov, err := r.srv.QueryWindowLive(f, int64(k))
		if err != nil {
			return fmt.Errorf("time-travel: root %s live answer: %w", r.name, err)
		}
		for {
			got, cov, err := r.srv.HistoryAt(f, int64(k))
			if err != nil {
				return fmt.Errorf("time-travel: root %s replay: %w", r.name, err)
			}
			if math.Float64bits(got) == math.Float64bits(want) && cov == wantCov {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("time-travel: root %s flow %d epoch %d: replay %v (cov %+v) != live %v (cov %+v)",
					r.name, f, k, got, cov, want, wantCov)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// feedWindow replays the healthy window at current epoch K into an
// oracle sketch: every point's epochs K-n+1..K-2 plus leaf x's own K-1.
func (e *engine) feedWindow(x, K int, fn func(f, e uint64)) {
	for k := K - chaosWindowN + 1; k <= K-2; k++ {
		if k < 1 {
			continue
		}
		for y := 0; y < chaosPoints; y++ {
			trace(k, y, fn)
		}
	}
	if K-1 >= 1 {
		trace(K-1, x, fn)
	}
}

// oracleCheck compares leaf x's live window queries against a fresh
// ideal sketch. Equality is exact: the transport's merge/compress path
// is lossless for these widths, so any deviation is state corruption.
func (e *engine) oracleCheck(x int, lf leaf, K int) error {
	if e.cfg.Kind == transport.KindSize {
		ideal := countmin.New(countmin.Params{D: chaosD, W: chaosW, Seed: uint64(e.cfg.Seed)})
		e.feedWindow(x, K, ideal.Record)
		for f := uint64(0); f < chaosFlows; f++ {
			got, err := lf.QuerySize(f)
			if err != nil {
				return fmt.Errorf("leaf %d flow %d: %w", x, f, err)
			}
			if want := ideal.Estimate(f); got != want {
				return fmt.Errorf("exactness: leaf %d flow %d at epoch %d: live size %d != oracle %d", x, f, K, got, want)
			}
		}
		return nil
	}
	ideal := rskt.New(rskt.Params{W: chaosW, M: chaosM, Seed: uint64(e.cfg.Seed)})
	e.feedWindow(x, K, ideal.Record)
	for f := uint64(0); f < chaosFlows; f++ {
		got, err := lf.QuerySpread(f)
		if err != nil {
			return fmt.Errorf("leaf %d flow %d: %w", x, f, err)
		}
		if want := ideal.Estimate(f); got != want {
			return fmt.Errorf("exactness: leaf %d flow %d at epoch %d: live spread %v != oracle %v", x, f, K, got, want)
		}
	}
	return nil
}
