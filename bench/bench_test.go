package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var testContractPath = filepath.Join("..", contractPath)

func loadSpec(t *testing.T) contract {
	t.Helper()
	var bs contract
	if err := readJSON(testContractPath, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

// smoke runs one workload at about a second and fails the test on any
// failed operation.
func smoke(t *testing.T, s spec, traced bool) *result {
	t.Helper()
	o := runOpts{spec: s, seed: 7, seconds: 0.5, setups: 1, workDir: t.TempDir()}
	if traced {
		o.tracePath = filepath.Join(o.workDir, "bench_trace.json")
	}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("ops_failed = %d of %d: %v", res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestWorkloads runs every workload named in BENCHMARK.json, traced and
// untraced, and checks that every metric the contract names is reported
// with its unit and a finite value, that no operation fails, that the
// cluster leaves no goroutine behind, and that the wire byte count is a
// function of the seed alone.
func TestWorkloads(t *testing.T) {
	bs := loadSpec(t)
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bs.Workloads), len(workloads))
	}
	for _, w := range bs.Workloads {
		s, err := findSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			traced := smoke(t, s, true)
			for _, m := range bs.EndToEnd {
				got, ok := traced.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end metric %s: got %+v (present=%v), want a positive finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range bs.PerLayer {
				got, ok := traced.PerLayer[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 {
					t.Errorf("per-layer metric %s: got %+v (present=%v), want a finite value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(traced.EndToEnd) != len(bs.EndToEnd) || len(traced.PerLayer) != len(bs.PerLayer) {
				t.Errorf("run reports %d end-to-end and %d per-layer metrics, BENCHMARK.json names %d and %d",
					len(traced.EndToEnd), len(traced.PerLayer), len(bs.EndToEnd), len(bs.PerLayer))
			}
			var obj map[string]json.RawMessage
			if line := contractLine(traced); json.Unmarshal([]byte(line), &obj) != nil || len(obj) != 4 {
				t.Errorf("contract line is not an object of four keys: %s", line)
			}

			untraced := smoke(t, s, false)
			if a, b := traced.EndToEnd[wireMetric].Value, untraced.EndToEnd[wireMetric].Value; a != b {
				t.Errorf("%s differs across two runs of one seed: %v vs %v", wireMetric, a, b)
			}

			// Every server's Close waits for its goroutines; give the
			// runtime a moment to retire the exited ones.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines left after the cluster closed (had %d):\n%s", n, before, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestCompare checks -compare's three verdicts on synthetic documents.
func TestCompare(t *testing.T) {
	bs := loadSpec(t)
	doc := func(scale float64, wire float64) string {
		d := allDoc{Schema: 1, Seed: 1, Workloads: map[string]*result{}}
		for _, s := range workloads {
			r := &result{Workload: s.name, Correct: true, EndToEnd: map[string]metric{}}
			for _, m := range bs.EndToEnd {
				r.EndToEnd[m.Name] = metric{Value: 10 * scale, Unit: m.Unit}
			}
			r.EndToEnd[wireMetric] = metric{Value: wire, Unit: "B"}
			d.Workloads[s.name] = r
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := doc(1, 1000)
	for _, tc := range []struct {
		name    string
		other   string
		ok      bool
		verdict string
	}{
		{"identical", doc(1, 1000), true, ""},
		{"within bound", doc(1.01, 1000), true, "within bound"},
		{"beyond bound", doc(2, 1000), false, "unresolved"},
		{"byte count moved", doc(1, 1001), false, "mismatch (exact count)"},
	} {
		var out bytes.Buffer
		ok, err := compareDocs(&out, testContractPath, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: ok=%v, want %v with verdict %q in:\n%s", tc.name, ok, tc.ok, tc.verdict, out.String())
		}
	}
}
