package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Cluster-wide constants every workload shares. They are the deployment
// defaults the CLIs document (n = 5, m = 128, d = 4), not knobs.
const (
	windowN = 5
	hllM    = 128
	cmDepth = 4

	// ringEpochs distinct epochs of packets are generated up front and
	// replayed round-robin; more than windowN, so no live window ever holds
	// the same packets twice.
	ringEpochs = 8
	// warmupEpochs full-size epochs run untimed before measurement: the
	// first n epochs fill the window and two more let the cumulative size
	// chain and every sync.Pool reach steady state.
	warmupEpochs = windowN + 2
	// histWindow is the length of every historical range query.
	histWindow = 16

	recordBatch = 256  // packets per PointClient.RecordBatch call (tqpoint's trace batch)
	queryEvery  = 4096 // packets between interleaved local queries on the ingest path
	queryBatch  = 8    // back-to-back local queries timed as one sample
	// quiescentBatches query batches follow every round, on points that are
	// not recording.
	quiescentBatches = 32
	traceFlows       = 120_000
	// nominalH is the epoch length the round is judged against: a round
	// longer than this would leave a point querying a stale aggregate.
	nominalH = time.Second
)

// spec is one workload: a cluster shape plus a load shape. Everything the
// program under test sees is generated from spec and the seed.
type spec struct {
	name string
	why  string
	kind transport.Kind
	// points leaves upload to the center directly, or through relays
	// aggregation relays (points/relays children each) when relays > 0.
	points, relays int
	// widths are per-point sketch widths, assigned round-robin. One entry
	// is the uniform case; several give device diversity.
	widths []int
	// pktsPerPointEpoch sizes one epoch's ingest.
	pktsPerPointEpoch int
	// preload epochs run before warm-up so historical windows have a store
	// to read from.
	preload int
	// histEvery runs the inline history operations on every histEvery-th
	// timed epoch (closed loop only).
	histEvery int
	// tick > 0 makes ingest open loop: one epoch is due every tick, and a
	// concurrent closed-loop client issues the history mix.
	tick time.Duration
	// replayCacheEpochs > 0 sizes the center's replay cache to about that
	// many per-epoch partials; 0 keeps the default budget.
	replayCacheEpochs int
	// areTol > 0 checks answers against exact ground truth within this
	// average relative error; 0 checks them bit-for-bit against an ideal
	// from-scratch sketch (valid for uniform widths only, Thm 6.1/6.3).
	areTol float64
}

// 2 Mb of sketch per point under the paper's memory model.
var (
	sizeW2Mb   = countmin.WidthForMemory(2<<20, cmDepth)
	spreadW2Mb = rskt.WidthForMemory(2<<20, hllM)
)

var workloads = []spec{
	{
		name: "ingest-size",
		why:  "p=4 two-sketch CountMin with large epochs: the record path does almost all the work, rounds and history ride beside it",
		kind: transport.KindSize, points: 4, widths: []int{sizeW2Mb},
		pktsPerPointEpoch: 128 << 10, preload: histWindow + 2, histEvery: 4,
	},
	{
		name: "ingest-spread",
		why:  "same ingest shape on the three-sketch rSkt2(HLL) design: a core ingest win moves both ingest workloads, a sketch-kernel win moves one",
		kind: transport.KindSpread, points: 4, widths: []int{spreadW2Mb},
		pktsPerPointEpoch: 128 << 10, preload: histWindow + 2, histEvery: 4,
	},
	{
		name: "round-flat-size",
		why:  "p=16 leaves direct to one center with widths w,2w,4w and small epochs: the boundary round (recovery, expand/compress, O(p) aggregates, gob, p sockets) dominates",
		kind: transport.KindSize, points: 16, widths: []int{1024, 2048, 4096},
		pktsPerPointEpoch: 8192, preload: histWindow + 2, histEvery: 2, areTol: 0.10,
	},
	{
		name: "round-tree-spread",
		why:  "p=16 through 4 relays on the spread design: the same round served by the relay implementation (pre-merge, packed HLL codec); a center-only or CountMin-only change must leave it flat",
		kind: transport.KindSpread, points: 16, relays: 4, widths: []int{256},
		pktsPerPointEpoch: 8192, preload: histWindow + 2, histEvery: 2,
	},
	{
		name: "history-mixed",
		why:  "p=8 spread with a quarter-size replay cache, open-loop epochs every 100 ms and a concurrent history client: store appends and cache invalidation beside replay reads, rounds under read load",
		kind: transport.KindSpread, points: 8, widths: []int{256},
		pktsPerPointEpoch: 8192, preload: 128, tick: 100 * time.Millisecond,
		replayCacheEpochs: 32,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) width(x int) int { return s.widths[x%len(s.widths)] }

func (s spec) maxWidth() int {
	m := 0
	for _, w := range s.widths {
		m = max(m, w)
	}
	return m
}

// delta reports whether size points upload per-epoch deltas: required
// behind relays, which cannot pre-merge cumulative sketches.
func (s spec) delta() bool { return s.kind == transport.KindSize && s.relays > 0 }

// ring is the pre-generated input: ringEpochs epochs of packets, split by
// the point each packet arrives at.
type ring [ringEpochs][][]core.SpreadPacket

// epoch returns the packets of epoch k (1-based) per point.
func (r *ring) epoch(k int64) [][]core.SpreadPacket { return r[k%ringEpochs] }

// genRing draws the workload's packets from trace.Generator: Zipf(1.2)
// flow popularity over 120k flows, spread correlated with size, each
// packet assigned to a uniformly random point.
func genRing(s spec, seed int64) (*ring, error) {
	cfg := trace.Default()
	cfg.Packets = ringEpochs * s.points * s.pktsPerPointEpoch
	cfg.Flows = traceFlows
	cfg.Points = s.points
	cfg.Seed = seed
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var r ring
	perEpoch := cfg.Packets / ringEpochs
	for e := range r {
		r[e] = make([][]core.SpreadPacket, s.points)
		for x := range r[e] {
			r[e][x] = make([]core.SpreadPacket, 0, s.pktsPerPointEpoch+s.pktsPerPointEpoch/16)
		}
		for i := 0; i < perEpoch; i++ {
			p, _ := g.Next()
			r[e][p.Point] = append(r[e][p.Point], core.SpreadPacket{Flow: p.Flow, Elem: p.Elem})
		}
	}
	return &r, nil
}
