package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// spanRec is one interval at a layer boundary. Spans of one boundary round
// (and of the kernel replay of the same epoch's input) share Round.
type spanRec struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: no parent
	Round  int64  `json:"round"`
}

// maxSpans bounds the span list written out; durations past it still feed
// the per-layer statistics.
const maxSpans = 20000

// tracer keeps the traced run's spans in memory. A nil tracer records
// nothing, which is how the untraced run stays untraced.
type tracer struct {
	spans   []spanRec
	dropped int
	// us collects every span's duration by name, in microseconds.
	us map[string]*samples
	// stage maps (round, stage name) to the live span a kernel span of the
	// same round hangs under.
	stage map[int64]map[string]int
}

func newTracer() *tracer {
	return &tracer{us: map[string]*samples{}, stage: map[int64]map[string]int{}}
}

// kernelParent names the live round stage each replayed kernel accounts
// for: its duration is subtracted from that stage's self time.
var kernelParent = map[string]string{
	"core.end_epoch":      "transport.upload",
	"codec.encode":        "transport.upload",
	"codec.decode":        "transport.turnaround",
	"core.relay_merge":    "transport.turnaround",
	"core.center_receive": "transport.turnaround",
	"durable.append":      "transport.turnaround",
	// The center builds and sends pushes one child at a time, so all but
	// the first AggregateFor of a round fall after the first push byte.
	"core.aggregate_for": "transport.push_apply",
	"core.apply":         "transport.push_apply",
}

// span records [start, end] (nanoseconds since procStart) and returns the
// span's id, or -1 when it was not kept.
func (t *tracer) span(name string, start, end, round int64) int {
	if t == nil {
		return -1
	}
	s, ok := t.us[name]
	if !ok {
		s = new(samples)
		t.us[name] = s
	}
	s.add(float64(end-start) / 1e3)
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	parent := -1
	if stage, ok := kernelParent[name]; ok {
		if id, ok := t.stage[round][stage]; ok {
			parent = id
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{ID: id, Name: name, Start: start, End: end, Parent: parent, Round: round})
	return id
}

// round cuts boundary round k into its three consecutive stages at the
// instants the point-side connection wrappers saw: the last upload byte
// written and the first push byte readable.
func (t *tracer) round(links []*link, k int64, t0, t2 time.Time) {
	if t == nil {
		return
	}
	start, end := int64(t0.Sub(procStart)), int64(t2.Sub(procStart))
	lastWrite, firstRead := start, end
	for _, l := range links {
		lastWrite = max(lastWrite, l.lastWrite.Load())
		if r := l.firstRead.Load(); r > 0 {
			firstRead = min(firstRead, r)
		}
	}
	firstRead = max(firstRead, lastWrite)
	root := t.span("round", start, end, k)
	ids := map[string]int{
		"transport.upload":     t.span("transport.upload", start, lastWrite, k),
		"transport.turnaround": t.span("transport.turnaround", lastWrite, firstRead, k),
		"transport.push_apply": t.span("transport.push_apply", firstRead, end, k),
	}
	for name, id := range ids {
		if id >= 0 {
			t.spans[id].Parent = root
		} else {
			delete(ids, name)
		}
	}
	t.stage[k] = ids
}

// selfTimes returns, per span name, the microseconds per round not covered
// by child spans. Kernel children are replays outside the parent's
// interval, so coverage is by duration, clamped at zero.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum, rounds := map[string]float64{}, map[string]map[int64]bool{}
	for i, s := range t.spans {
		sum[s.Name] += float64(max(0, s.End-s.Start-child[i])) / 1e3
		if rounds[s.Name] == nil {
			rounds[s.Name] = map[int64]bool{}
		}
		rounds[s.Name][s.Round] = true
	}
	for name := range sum {
		sum[name] /= float64(len(rounds[name]))
	}
	return sum
}

// write dumps the trace: the span list, self time per span name and per
// layer (the package before the dot).
func (t *tracer) write(path string, res *result) error {
	self := t.selfTimes()
	layers := map[string]float64{}
	for name, us := range self {
		if layer, _, ok := strings.Cut(name, "."); ok {
			layers[layer] += us
		}
	}
	doc := map[string]any{
		"workload":           res.Workload,
		"seed":               res.Seed,
		"spans":              t.spans,
		"spans_dropped":      t.dropped,
		"self_us_by_span":    self,
		"self_us_by_layer":   layers,
		"per_layer":          res.PerLayer,
		"end_to_end_traced":  res.EndToEnd,
		"span_time_origin":   "process start",
		"kernel_span_parent": kernelParent,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
