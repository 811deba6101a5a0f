package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
	"repro/internal/transport"
)

// Per-layer metrics come from a traced run only. They have two sources:
// counts and spans taken around the live timed loop (layerCounts, tracer),
// and kernels — each layer's exported functions called directly on the
// same generated epochs the live rounds carried (runKernels).

// layerCounts are the counters read before and after the timed loop.
type layerCounts struct {
	mallocs    uint64
	stats      transport.CenterStats
	rounds     int
	goroutines int
	peakRSSMB  float64
}

func startLayerCounts(b *bench) *layerCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &layerCounts{mallocs: ms.Mallocs, stats: b.c.center.Stats()}
}

func (lc *layerCounts) stop(b *bench) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lc.mallocs = ms.Mallocs - lc.mallocs
	st := b.c.center.Stats()
	st.ReplayCacheHits -= lc.stats.ReplayCacheHits
	st.ReplayCacheMisses -= lc.stats.ReplayCacheMisses
	lc.stats = st
	lc.rounds = len(b.roundMs)
	lc.goroutines = runtime.NumGoroutine()
	lc.peakRSSMB = peakRSSMB()
}

// rows turns the counts and the live spans into per-layer rows (units are
// the perLayer table's).
func (lc *layerCounts) rows(b *bench) map[string]metric {
	lookups := float64(lc.stats.ReplayCacheHits + lc.stats.ReplayCacheMisses)
	stage := func(name string) metric {
		if s := b.tr.us[name]; s != nil {
			return s.metric("")
		}
		return metric{}
	}
	return map[string]metric{
		"transport.upload_us":     stage("transport.upload"),
		"transport.turnaround_us": stage("transport.turnaround"),
		"transport.push_apply_us": stage("transport.push_apply"),
		"transport.query_rpc_us":  b.rpcUs.metric(""),
		"core.replay_hit_ratio":   {Value: float64(lc.stats.ReplayCacheHits) / max(lookups, 1)},
		"allocs_per_round":        {Value: float64(lc.mallocs) / float64(max(lc.rounds, 1))},
		"goroutines":              {Value: float64(lc.goroutines)},
		"peak_rss_mb":             {Value: lc.peakRSSMB},
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM); 0
// where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// benchSketch is what the kernels need from a sketch backend beyond the
// engine's algebra: the batched record kernel and the wire codec.
type benchSketch[S any] interface {
	core.Sketch[S]
	RecordAll(fs, es []uint64)
	MarshalBinaryCompact() ([]byte, error)
}

// design builds one sketch backend's engine parts for the kernels.
type design[S benchSketch[S]] struct {
	fresh  func(w int) S
	point  func(x, w int) (*core.Point[S], error)
	center func(widths map[int]int) (*core.Center[S], error)
	relay  core.EngineConfig[S]
}

// kernelBudget bounds the kernel replay's wall time; it always replays at
// least one pass over the ring.
const kernelBudget = 3 * time.Second

// relayFanIn is how many uploads one relay pre-merges on a flat workload,
// where no relay is on the round's path and the row is a what-if.
const relayFanIn = 4

func runKernels(b *bench, out map[string]metric) error {
	s, seed := b.s, uint64(b.o.seed)
	if s.kind == transport.KindSize {
		mode := core.SizeModeCumulative
		if s.delta() {
			mode = core.SizeModeDelta
		}
		params := func(w int) countmin.Params { return countmin.Params{D: cmDepth, W: w, Seed: seed} }
		return kernels(b, out, design[*countmin.Sketch]{
			fresh: func(w int) *countmin.Sketch { return countmin.New(params(w)) },
			point: func(x, w int) (*core.Point[*countmin.Sketch], error) {
				p, err := core.NewSizePoint(x, params(w), mode)
				if err != nil {
					return nil, err
				}
				return p.Point, nil
			},
			center: func(widths map[int]int) (*core.Center[*countmin.Sketch], error) {
				ps := map[int]countmin.Params{}
				for id, w := range widths {
					ps[id] = params(w)
				}
				c, err := core.NewSizeCenter(windowN, ps, mode)
				if err != nil {
					return nil, err
				}
				return c.Center, nil
			},
			relay: core.EngineConfig[*countmin.Sketch]{Design: "size", Mode: core.ModeDelta, Additive: true},
		})
	}
	params := func(w int) rskt.Params { return rskt.Params{W: w, M: hllM, Seed: seed} }
	return kernels(b, out, design[*rskt.Sketch]{
		fresh: func(w int) *rskt.Sketch { return rskt.New(params(w)) },
		point: func(x, w int) (*core.Point[*rskt.Sketch], error) {
			p, err := core.NewSpreadPoint(x, params(w))
			if err != nil {
				return nil, err
			}
			return p.Point, nil
		},
		center: func(widths map[int]int) (*core.Center[*rskt.Sketch], error) {
			ps := map[int]rskt.Params{}
			for id, w := range widths {
				ps[id] = params(w)
			}
			c, err := core.NewSpreadCenter(windowN, ps)
			if err != nil {
				return nil, err
			}
			return c.Center, nil
		},
		relay: core.EngineConfig[*rskt.Sketch]{Design: "spread", Mode: core.ModeDelta},
	})
}

// kernels replays the live rounds' epochs through each layer's exported
// functions directly — sketch, codec, core point/relay/center, durable —
// timing every call, and adds one median row per kernel to out. The replay
// is an in-process cluster of the workload's shape with its own epoch
// clock; its untimed lead-in is sized so that timed replay round i carries
// exactly the ring slice (and window) of live timed round i, whose id its
// spans share.
func kernels[S benchSketch[S]](b *bench, out map[string]metric, d design[S]) error {
	s := b.s
	tree := s.relays > 0
	group := relayFanIn
	if tree {
		group = s.points / s.relays
	}
	points := make([]*core.Point[S], s.points)
	bare := make([]S, s.points)
	leafWidths, centerWidths := map[int]int{}, map[int]int{}
	for x := range points {
		var err error
		if points[x], err = d.point(x, s.width(x)); err != nil {
			return err
		}
		points[x].SetTopology(s.points, windowN)
		bare[x] = d.fresh(s.width(x))
		leafWidths[x] = s.width(x)
	}
	relays := make([]*core.Relay[S], s.points/group)
	for r := range relays {
		protos := map[int]S{}
		for x := r * group; x < (r+1)*group; x++ {
			protos[x] = d.fresh(s.width(x))
		}
		var err error
		if relays[r], err = core.NewRelay(windowN, protos, nil, d.relay); err != nil {
			return err
		}
		centerWidths[relayIDBase+r] = s.maxWidth()
	}
	if !tree {
		centerWidths = leafWidths
	}
	center, err := d.center(centerWidths)
	if err != nil {
		return err
	}
	ids := make([]int, 0, len(centerWidths))
	for id := range centerWidths {
		ids = append(ids, id)
		if tree {
			center.SetWeight(id, group)
		}
	}
	log, err := durable.OpenLog(durable.LogConfig{Dir: filepath.Join(b.o.workDir, "kernel-log")})
	if err != nil {
		return err
	}
	defer log.Close()

	firstLive := int64(s.preload + warmupEpochs + 1)
	lead := int64(warmupEpochs)
	for (lead+1)%ringEpochs != firstLive%ringEpochs {
		lead++
	}
	var (
		sm    = map[string]*samples{}
		round int64 // live round id of the replay round in progress; 0 while leading in
	)
	sample := func(name string, v float64) {
		if round == 0 {
			return
		}
		if sm[name] == nil {
			sm[name] = new(samples)
		}
		sm[name].add(v)
	}
	// timeIt runs fn and, on timed rounds, records its duration divided by
	// div nanoseconds as a sample of the named row, and as a span.
	timeIt := func(name string, div float64, fn func()) {
		t0 := sinceStart()
		fn()
		t1 := sinceStart()
		sample(name, float64(t1-t0)/div)
		if round != 0 {
			b.tr.span(spanName(name), t0, t1, round)
		}
	}
	const us = 1e3
	var kerr error
	fail := func(err error) {
		if err != nil && kerr == nil {
			kerr = err
		}
	}
	compact := func(sk S) ([]byte, error) { return sk.MarshalBinaryCompact() }
	appendCell := func(id int, j int64) {
		cell, ok, err := center.MarshalUpload(id, j, compact)
		fail(err)
		if !ok {
			return
		}
		before := log.Stats().Bytes
		timeIt("durable.append_us_per_cell", us, func() { fail(log.Append(id, j, cell)) })
		sample("durable.bytes_per_cell", float64(log.Stats().Bytes-before))
	}
	flows := make([]uint64, queryBatch)
	var fs, es []uint64 // one point-epoch's packets as the arrays RecordAll takes
	start := time.Now()
	for j := int64(1); kerr == nil; j++ {
		if j > lead {
			timedRounds := j - lead - 1
			if timedRounds >= int64(len(b.roundMs)) || (timedRounds >= ringEpochs && time.Since(start) > kernelBudget) {
				break
			}
			round = firstLive + timedRounds
		}
		pk := b.ring.epoch(j)
		for x, ps := range pk {
			fs, es = fs[:0], es[:0]
			for _, p := range ps {
				fs, es = append(fs, p.Flow), append(es, p.Elem)
			}
			bare[x].Reset()
			n := float64(max(len(ps), 1))
			timeIt("sketch.record_ns_per_pkt", n, func() {
				for off := 0; off < len(ps); off += recordBatch {
					end := min(off+recordBatch, len(ps))
					bare[x].RecordAll(fs[off:end], es[off:end])
				}
			})
			timeIt("core.record_ns_per_pkt", n, func() {
				for off := 0; off < len(ps); off += recordBatch {
					points[x].RecordBatch(ps[off:min(off+recordBatch, len(ps))])
				}
			})
			for i := range flows {
				flows[i] = b.flow()
			}
			timeIt("sketch.estimate_ns", queryBatch, func() {
				for _, f := range flows {
					bare[x].EstimateUnion(f, nil)
				}
			})
			timeIt("core.query_ns", queryBatch, func() {
				for _, f := range flows {
					points[x].Query(f)
				}
			})
		}
		// The boundary: each leaf's upload through the codec; a relay
		// pre-merge per group of leaves; then the center and the store.
		var first S
		decoded := make([]S, 0, group)
		for x := range points {
			var up S
			var meta core.UploadMeta
			timeIt("core.end_epoch_us", us, func() { up, meta = points[x].EndEpochMeta(false) })
			var blob []byte
			timeIt("codec.encode_us", us, func() {
				var err error
				blob, err = compact(up)
				fail(err)
			})
			sample("codec.bytes", float64(len(blob)))
			dec := d.fresh(s.width(x))
			timeIt("codec.decode_us", us, func() { fail(dec.UnmarshalBinary(blob)) })
			if x == 0 {
				first = up
			}
			if tree {
				decoded = append(decoded, dec)
			} else {
				// No relay on a flat round's path: pre-merge copies.
				decoded = append(decoded, dec.Clone())
				timeIt("core.center_receive_us", us, func() { fail(center.ReceiveMeta(x, j, dec, meta)) })
				appendCell(x, j)
			}
			if len(decoded) < group {
				continue
			}
			r := x / group
			var combined S
			timeIt("core.relay_merge_us", us, func() {
				for i, sk := range decoded {
					fail(relays[r].Receive(r*group+i, j, sk))
				}
				_, combined, _ = relays[r].Next()
			})
			decoded = decoded[:0]
			if tree {
				id := relayIDBase + r
				timeIt("core.center_receive_us", us, func() {
					fail(center.ReceiveMeta(id, j, combined, core.UploadMeta{Epoch: j}))
				})
				appendCell(id, j)
			}
		}
		for _, id := range ids {
			var agg S
			timeIt("core.aggregate_for_us", us, func() {
				var err error
				agg, err = center.AggregateFor(id, j+1)
				fail(err)
			})
			if core.IsNil(agg) {
				continue
			}
			merged, _ := center.CoverageFor(j + 1)
			lo, hi := id, id+1
			if tree {
				lo, hi = (id-relayIDBase)*group, (id-relayIDBase+1)*group
			}
			for x := lo; x < hi; x++ {
				timeIt("core.apply_us", us, func() { fail(points[x].ApplyAggregateCovAt(j+1, agg, merged)) })
			}
		}
		timeIt("durable.get_epoch_us", us, func() {
			fail(log.GetEpoch(j, ids, func(int, []byte) error { return nil }))
		})
		a, a2 := first.Clone(), first.Clone()
		timeIt("sketch.merge_us", us, func() { fail(a.Merge(a2)) })
		timeIt("sketch.expand_compress_us", us, func() {
			e, err := first.ExpandTo(s.maxWidth())
			fail(err)
			if err == nil {
				_, err = e.CompressTo(s.width(0))
				fail(err)
			}
		})
	}
	if kerr != nil {
		return kerr
	}
	for name, smp := range sm {
		out[name] = smp.metric("")
	}
	return nil
}

// spanName strips the unit suffix off a row name: "core.end_epoch_us" and
// "durable.append_us_per_cell" are spans "core.end_epoch", "durable.append".
func spanName(row string) string {
	for _, unit := range []string{"_us", "_ns"} {
		if i := strings.LastIndex(row, unit); i >= 0 {
			return row[:i]
		}
	}
	return row
}
