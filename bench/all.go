package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// allDoc is the result document of a -all run: what -o writes and
// -compare reads.
type allDoc struct {
	Schema    int                `json:"schema"`
	Env       map[string]string  `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
	// Traced and TraceOverhead are present after -all -trace 1: the traced
	// run of each workload, and the relative change tracing caused in each
	// end-to-end metric against the untraced run.
	Traced        map[string]*result            `json:"traced,omitempty"`
	TraceOverhead map[string]map[string]float64 `json:"trace_overhead,omitempty"`
}

func (d *allDoc) correct() bool {
	for _, set := range []map[string]*result{d.Workloads, d.Traced} {
		for _, r := range set {
			if !r.Correct {
				return false
			}
		}
	}
	return true
}

// runAll runs every workload, each in its own child process with
// GOMAXPROCS pinned to the core count, and with traced set follows each
// with a traced run.
func runAll(seed int64, seconds float64, traced bool) (*allDoc, error) {
	doc := &allDoc{
		Schema: 1, Seed: seed, Seconds: seconds,
		Env: map[string]string{
			"nproc": strconv.Itoa(runtime.NumCPU()), "gomaxprocs": strconv.Itoa(runtime.NumCPU()),
			"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"network": "loopback TCP", "store": "disk as found under .bench_build/tmp",
		},
		Workloads: map[string]*result{},
	}
	if traced {
		doc.Traced = map[string]*result{}
		doc.TraceOverhead = map[string]map[string]float64{}
	}
	for _, s := range workloads {
		res, err := runChild(s.name, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		doc.Workloads[s.name] = res
		if !traced {
			continue
		}
		tres, err := runChild(s.name, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		doc.Traced[s.name] = tres
		over := map[string]float64{}
		fmt.Printf("tracing overhead on %s:", s.name)
		for _, def := range endToEnd {
			base := res.EndToEnd[def.name].Value
			over[def.name] = (tres.EndToEnd[def.name].Value - base) / base
			fmt.Printf("  %s %+.1f%%", def.name, 100*over[def.name])
		}
		fmt.Println()
		doc.TraceOverhead[s.name] = over
	}
	return doc, nil
}

// runChild runs one workload in a child process of this binary and reads
// its result document back.
func runChild(name string, seed int64, seconds float64, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(scratchRoot(), fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(out)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-o", out)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	var res result
	if err := readJSON(out, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, err
	}
	return &res, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// contract is the part of BENCHMARK.json the benchmark itself reads:
// -compare takes directions and bounds from it, the smoke test the lists.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// compareDocs prints one row per (workload, end-to-end metric) of two
// result documents with both values, the relative difference and the
// bound. A difference wider than the bound is unresolved; an exact count
// that differs on the same seed is a mismatch. Either makes it return
// false.
func compareDocs(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec contract
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b allDoc
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, s := range workloads {
		ra, rb := a.Workloads[s.name], b.Workloads[s.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-18s missing from one document\n", s.name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			rel := (vb - va) / va
			verdict := "ok"
			switch {
			case m.Name == wireMetric && a.Seed == b.Seed && va != vb:
				verdict, ok = "mismatch (exact count)", false
			case math.IsNaN(rel) || math.Abs(rel) > m.Bound:
				verdict, ok = "unresolved", false
			case (m.Better == "lower") == (rel > 0) && rel != 0:
				verdict = "ok (worse, within bound)"
			}
			fmt.Fprintf(w, "%-18s %-28s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", s.name, m.Name, va, vb, 100*rel, 100*m.Bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-18s ops_failed: a=%d b=%d\n", s.name, ra.Failed, rb.Failed)
			ok = false
		}
	}
	return ok, nil
}
