// Command bench is the repository's one benchmark: it boots live
// loopback-TCP clusters through the transport package's public surface,
// drives them from pre-generated trace.Generator packets, and reports what
// an operator feels (ingest rate, query latency, boundary-round latency,
// wire bytes, historical-query latency, set-up time) plus, in a traced
// run, one row per layer beneath those numbers. Every run checks the
// program's answers and exits non-zero on a wrong one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two tables below
// mirror BENCHMARK.json's metric lists (the smoke test holds them to it).
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_mpps", "Mpkt/s"},
	{"query_us_p50", "us"},
	{"round_ms_p50", "ms"},
	{wireMetric, "B"},
	{"hist_cold_ms_p50", "ms"},
	{"hist_slide_ms_p50", "ms"},
}

// wireMetric is the one end-to-end metric that is a count, not a timing:
// two runs of one commit on one seed must report it identically.
const wireMetric = "wire_bytes_per_point_epoch"

// perLayer lists the per-layer metrics a traced run must report.
var perLayer = []metricDef{
	{"sketch.record_ns_per_pkt", "ns"}, {"sketch.estimate_ns", "ns"},
	{"sketch.merge_us", "us"}, {"sketch.expand_compress_us", "us"},
	{"codec.encode_us", "us"}, {"codec.decode_us", "us"}, {"codec.bytes", "B"},
	{"core.record_ns_per_pkt", "ns"}, {"core.query_ns", "ns"},
	{"core.end_epoch_us", "us"}, {"core.center_receive_us", "us"},
	{"core.aggregate_for_us", "us"}, {"core.apply_us", "us"},
	{"core.relay_merge_us", "us"}, {"core.replay_hit_ratio", "ratio"},
	{"transport.upload_us", "us"}, {"transport.turnaround_us", "us"},
	{"transport.push_apply_us", "us"}, {"transport.query_rpc_us", "us"},
	{"durable.append_us_per_cell", "us"}, {"durable.bytes_per_cell", "B"},
	{"durable.get_epoch_us", "us"},
	{"peak_rss_mb", "MB"}, {"goroutines", "count"}, {"allocs_per_round", "count"},
}

// contractPath is the benchmark contract, read by -compare for the bounds.
const contractPath = "BENCHMARK.json"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (see -list)")
		all      = flag.Bool("all", false, "run every workload, each in its own child process")
		seed     = flag.Int64("seed", 1, "seed for the generated trace and the query schedules")
		seconds  = flag.Float64("seconds", 10, "length of the timed section")
		traced   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing bench_trace.json")
		out      = flag.String("o", "", "also write the full result document to this file")
		compare  = flag.Bool("compare", false, "compare two result documents: bench -compare a.json b.json")
		list     = flag.Bool("list", false, "list the workloads")
	)
	flag.Parse()
	switch {
	case *list:
		for _, s := range workloads {
			fmt.Printf("%-18s %s\n", s.name, s.why)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		ok, err := compareDocs(os.Stdout, contractPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		doc, err := runAll(*seed, *seconds, *traced == 1)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, doc); err != nil {
				fatal(err)
			}
		}
		if !doc.correct() {
			os.Exit(1)
		}
	default:
		s, err := findSpec(*workload)
		if err != nil {
			fatal(err)
		}
		workDir, err := os.MkdirTemp(scratchRoot(), "run-")
		if err != nil {
			fatal(err)
		}
		o := runOpts{spec: s, seed: *seed, seconds: *seconds, setups: 3, workDir: workDir}
		if *traced == 1 {
			o.tracePath = "bench_trace.json"
		}
		res, err := run(o)
		_ = os.RemoveAll(workDir)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		fmt.Println(contractLine(res))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// scratchRoot is where stores and traces go: inside the working directory,
// never the system temp directory, so a run touches nothing outside its
// checkout.
func scratchRoot() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// run performs one benchmark run of one workload in this process.
func run(o runOpts) (*result, error) {
	var b *bench
	var setupS samples
	for i := 0; i < o.setups; i++ {
		if b != nil {
			b.c.close()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(o, i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS.add(time.Since(t0).Seconds())
	}
	defer b.c.close()
	traced := o.tracePath != ""
	var lc *layerCounts
	if traced {
		b.tr = newTracer()
		lc = startLayerCounts(b)
	}
	res := &result{Workload: o.spec.name, Seed: o.seed, Seconds: o.seconds, Trace: traced}
	wire := b.measure()
	if traced {
		lc.stop(b)
	}
	b.verify()

	timings := map[string]samples{
		"setup_s": setupS, "ingest_mpps": b.ingestMpps, "query_us_p50": b.queryUs,
		"round_ms_p50": b.roundMs, "hist_cold_ms_p50": b.histColdMs, "hist_slide_ms_p50": b.histSlideMs,
	}
	res.EndToEnd = map[string]metric{}
	for _, def := range endToEnd {
		res.EndToEnd[def.name] = timings[def.name].metric(def.unit)
	}
	res.EndToEnd[wireMetric] = metric{Value: wire, Unit: "B"}
	res.Extra = map[string]metric{
		"round_frac_h": {Value: b.roundMs.median() / (float64(nominalH) / 1e6), Unit: "ratio"},
		"epochs_timed": {Value: float64(len(b.roundMs)), Unit: "count"},
	}
	if len(b.lateMs) > 0 {
		res.Extra["sched_late_ms_p50"] = b.lateMs.metric("ms")
	}
	if b.s.areTol > 0 {
		res.Extra["are_top100"] = metric{Value: b.are, Unit: "ratio"}
	}
	if traced {
		rows := lc.rows(b)
		if err := runKernels(b, rows); err != nil {
			return nil, fmt.Errorf("layer kernels: %w", err)
		}
		res.PerLayer = map[string]metric{}
		for _, def := range perLayer {
			row, ok := rows[def.name]
			if !ok {
				return nil, fmt.Errorf("traced run did not produce per-layer metric %s", def.name)
			}
			row.Unit = def.unit
			res.PerLayer[def.name] = row
		}
		if err := b.tr.write(o.tracePath, res); err != nil {
			return nil, err
		}
	}
	for name, m := range res.EndToEnd {
		b.ops.attempted.Add(1)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			b.ops.fail("metric %s was not measured (%v)", name, m.Value)
		}
	}
	res.Attempted, res.Failed = b.ops.attempted.Load(), b.ops.failed.Load()
	res.Failures = b.ops.msgs
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult prints every metric by name and unit, with sample counts and
// the reported-only tail.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  %.3gs timed  trace=%v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	row := func(name string, m metric) {
		fmt.Fprintf(w, "  %-30s %14.6g %-7s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Tail != "" {
			fmt.Fprintf(w, " %s=%.6g", m.Tail, m.TailValue)
		}
		fmt.Fprintln(w)
	}
	for _, def := range endToEnd {
		row(def.name, res.EndToEnd[def.name])
	}
	for _, set := range []map[string]metric{res.Extra, res.PerLayer} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row(name, set[name])
		}
	}
	fmt.Fprintf(w, "  ops_attempted = %d  ops_failed = %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// contractLine is the run's last line of output: the benchmark contract's
// result object. An untraced run carries the end-to-end metrics, a traced
// run the per-layer ones.
func contractLine(res *result) string {
	set := res.EndToEnd
	if res.Trace {
		set = res.PerLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]vu, len(set))
	for name, m := range set {
		ms[name] = vu{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms,
	})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
