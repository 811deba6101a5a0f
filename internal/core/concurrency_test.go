package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The live deployment records packets, answers queries, rolls epochs and
// applies center pushes from different goroutines. These tests exist to
// fail under `go test -race` if the point types ever lose their locking.

// hammerPoint runs every writer and every fold point of one point at once:
// shared-lane singles and batches, a private recorder that closes, queries,
// center pushes, an export/import loop, and extra, when set, each in a
// loop for as long as the epoch rolls run. The rolls start once every
// loop has run a step, and no loop stops before they end, so no step can
// finish before the rolls begin and hide a race.
func hammerPoint[S Sketch[S]](t *testing.T, pt *Point[S], agg S, extra func()) {
	const rolls = 50
	var wg, started sync.WaitGroup
	rolled := make(chan struct{})
	run := func(step func(i int)) {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				step(i)
				if i == 0 {
					started.Done()
				}
				select {
				case <-rolled:
					return
				default:
					runtime.Gosched() // let the rolls in
				}
			}
		}()
	}
	batch := func(i int) []SpreadPacket {
		ps := make([]SpreadPacket, 64)
		for j := range ps {
			ps[j] = SpreadPacket{Flow: uint64(j % 50), Elem: uint64(i*64 + j)}
		}
		return ps
	}
	run(func(i int) { pt.Record(uint64(i%50), uint64(i)) })
	run(func(i int) { pt.RecordBatch(batch(i)) })
	run(func(i int) { pt.RecordBatchFlows([]uint64{uint64(i), uint64(i + 1)}) })
	// A private recorder that closes while the rolls run, then a fresh
	// one, so both its writes and its close race the fold points.
	rec := pt.NewRecorder()
	run(func(i int) {
		rec.Record(uint64(i%50), uint64(i))
		if i%100 == 0 {
			rec.RecordBatch(batch(i))
		}
		if i%50 == 49 {
			rec.Close()
			rec = pt.NewRecorder()
		}
	})
	run(func(i int) { _ = pt.Query(uint64(i % 50)) })
	if extra != nil {
		run(func(int) { extra() })
	}
	run(func(int) {
		// A checkpoint restore racing live ingest: the restore resets
		// every lane a writer may be inside.
		if err := pt.ImportState(pt.ExportState()); err != nil {
			t.Errorf("restore: %v", err)
		}
	})
	run(func(i int) {
		// Target a bogus epoch about half the time; stale pushes must
		// be rejected, not merged.
		err := pt.ApplyAggregateCovAt(int64(i%100), agg, 1)
		if err == nil {
			err = pt.ApplyEnhancementAt(int64(i%100), agg)
		}
		if err != nil && !errors.Is(err, ErrStaleEpoch) && !errors.Is(err, ErrDuplicatePush) {
			t.Errorf("unexpected apply error: %v", err)
		}
	})
	started.Wait()
	for i := 0; i < rolls; i++ {
		_ = pt.EndEpoch()
	}
	close(rolled)
	wg.Wait()
	rec.Close()
}

func TestPointConcurrentAccess(t *testing.T) {
	t.Run("spread", func(t *testing.T) {
		params := rskt.Params{W: 64, M: 32, Seed: 1}
		pt, err := NewSpreadPoint(0, params)
		if err != nil {
			t.Fatal(err)
		}
		agg := rskt.New(params)
		for e := uint64(0); e < 100; e++ {
			agg.Record(5, e)
		}
		// Params must not read the sketch set an epoch roll swaps.
		hammerPoint(t, pt.Point, agg, func() {
			if pt.Params() != params {
				t.Errorf("Params() = %+v, want %+v", pt.Params(), params)
			}
		})
	})
	t.Run("size", func(t *testing.T) {
		params := countmin.Params{D: 4, W: 128, Seed: 1}
		pt, err := NewSizePoint(0, params, SizeModeCumulative)
		if err != nil {
			t.Fatal(err)
		}
		agg := countmin.New(params)
		agg.Add(3, 10)
		hammerPoint(t, pt.Point, agg, nil)
	})
}

// Whichever entry point and lane a packet goes through, the point must
// hold exactly what one sketch fed the same packets would: the lane fold
// is counter-wise add (size) / register-wise max (spread), both exact
// under the protocol's merge algebra.

// ingestPaths are the record entry points, each feeding one worker's
// packets.
var ingestPaths = []struct {
	name      string
	zeroElems bool
}{
	{name: "Record"},
	{name: "RecordBatch"},
	{name: "RecordBatchFlows", zeroElems: true},
	{name: "Recorder.Record"},
	{name: "Recorder.RecordBatch"},
}

func feedPath[S Sketch[S]](pt *Point[S], path string, ps []SpreadPacket) {
	const chunk = 64
	switch path {
	case "Record":
		for _, q := range ps {
			pt.Record(q.Flow, q.Elem)
		}
	case "RecordBatch":
		for ; len(ps) > 0; ps = ps[min(chunk, len(ps)):] {
			pt.RecordBatch(ps[:min(chunk, len(ps))])
		}
	case "RecordBatchFlows":
		fs := make([]uint64, 0, chunk)
		for ; len(ps) > 0; ps = ps[min(chunk, len(ps)):] {
			fs = fs[:0]
			for _, q := range ps[:min(chunk, len(ps))] {
				fs = append(fs, q.Flow)
			}
			pt.RecordBatchFlows(fs)
		}
	case "Recorder.Record":
		rec := pt.NewRecorder()
		defer rec.Close()
		for _, q := range ps {
			rec.Record(q.Flow, q.Elem)
		}
	case "Recorder.RecordBatch":
		rec := pt.NewRecorder() // left registered: idle lanes must stay harmless
		for ; len(ps) > 0; ps = ps[min(chunk, len(ps)):] {
			rec.RecordBatch(ps[:min(chunk, len(ps))])
		}
	}
}

// checkIngestPath drives one point through one entry point from several
// workers and compares it with bare reference sketches: mid-epoch answers
// (the on-the-fly fold), the upload of a quiet boundary, and the uploads
// of boundaries that land while batches are in flight, where every packet
// must reach exactly one epoch.
func checkIngestPath[S Sketch[S]](t *testing.T, fresh func() S, cfg EngineConfig[S], path string, zeroElems bool) {
	const workers, perWorker, flows = 3, 2000, 150
	pt, err := NewPoint(0, fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	segment := func(seg int) (stripes [workers][]SpreadPacket, ref S) {
		ref = fresh()
		for w := range stripes {
			for i := 0; i < perWorker; i++ {
				n := uint64((seg*workers+w)*perWorker + i)
				q := SpreadPacket{Flow: n % flows, Elem: n * 0x9E3779B97F4A7C15}
				if zeroElems {
					q.Elem = 0
				}
				stripes[w] = append(stripes[w], q)
				ref.Record(q.Flow, q.Elem)
			}
		}
		return stripes, ref
	}
	feed := func(stripes [workers][]SpreadPacket) *sync.WaitGroup {
		var wg sync.WaitGroup
		for _, ps := range stripes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				feedPath(pt, path, ps)
			}()
		}
		return &wg
	}
	same := func(what string, got, want S) {
		t.Helper()
		g, err := got.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s differs from the reference sketch", what)
		}
	}
	sameAnswers := func(when string, ref S) {
		t.Helper()
		for f := uint64(0); f < flows; f++ {
			if got, want := pt.Query(f), ref.EstimateUnion(f, nil); got != want {
				t.Fatalf("%s query(%d): point %v, reference %v", when, f, got, want)
			}
		}
	}
	// deltaOf recovers an epoch's own records from its upload: the upload
	// itself in delta mode, the Section V-B subtraction in cumulative mode.
	var prev S
	deltaOf := func(upload S) S {
		if cfg.Mode == ModeCumulative && !IsNil(prev) {
			if err := cfg.Sub(upload, prev); err != nil {
				t.Fatal(err)
			}
		}
		prev = upload
		return upload
	}

	stripes, ref1 := segment(0)
	feed(stripes).Wait()
	sameAnswers("mid-epoch", ref1)
	same("quiet-boundary upload", deltaOf(pt.EndEpoch()), ref1)
	sameAnswers("post-boundary", ref1)

	stripes, ref2 := segment(1)
	wg := feed(stripes)
	got2 := fresh()
	for k := 0; k < 4; k++ {
		mustMerge(got2, deltaOf(pt.EndEpoch()))
	}
	wg.Wait()
	mustMerge(got2, deltaOf(pt.EndEpoch()))
	same("union of mid-batch boundary uploads", got2, ref2)

	// Rejoin must drop unfolded records from every lane, private ones
	// included.
	rec := pt.NewRecorder()
	rec.Record(1, 1)
	pt.Record(2, 2)
	pt.Rejoin(pt.Epoch() + 1)
	sameAnswers("after Rejoin", fresh())
}

// ingestDesign binds one design's sketch constructor and engine discipline
// to checkIngestPath.
func ingestDesign[S Sketch[S]](fresh func() S, cfg EngineConfig[S]) func(t *testing.T, lanes int, path string, zeroElems bool) {
	return func(t *testing.T, lanes int, path string, zeroElems bool) {
		cfg.Shards = lanes
		checkIngestPath(t, fresh, cfg, path, zeroElems)
	}
}

func TestIngestPathsMatchReference(t *testing.T) {
	freshCM := func() *countmin.Sketch { return countmin.New(countmin.Params{D: 4, W: 256, Seed: 7}) }
	freshRskt := func() *rskt.Sketch { return rskt.New(rskt.Params{W: 64, M: 32, Seed: 7}) }
	freshVhll := func() *vhll.Sketch {
		s, err := vhll.New(vhll.Params{PhysicalRegisters: 4096, VirtualRegisters: 32, Seed: 7})
		if err != nil {
			panic(err)
		}
		return s
	}
	designs := []struct {
		name string
		run  func(t *testing.T, lanes int, path string, zeroElems bool)
	}{
		{"size-cumulative", ingestDesign(freshCM, SizeEngine(ModeCumulative))},
		{"size-delta", ingestDesign(freshCM, EngineConfig[*countmin.Sketch]{Design: "size", Mode: ModeDelta, Additive: true})},
		{"spread-rskt", ingestDesign(freshRskt, EngineConfig[*rskt.Sketch]{Design: "spread", Mode: ModeDelta})},
		{"spread-vhll", ingestDesign(freshVhll, EngineConfig[*vhll.Sketch]{Design: "spread", Mode: ModeDelta})},
	}
	for _, path := range ingestPaths {
		for _, d := range designs {
			for _, lanes := range []int{1, 0} { // 0 = the GOMAXPROCS default
				t.Run(fmt.Sprintf("%s/%s/lanes=%d", path.name, d.name, lanes), func(t *testing.T) {
					d.run(t, lanes, path.name, path.zeroElems)
				})
			}
		}
	}
}

func TestCentersConcurrentAccess(t *testing.T) {
	spreadParams := map[int]rskt.Params{0: {W: 16, M: 16, Seed: 1}, 1: {W: 16, M: 16, Seed: 1}}
	sc, err := NewSpreadCenter(5, spreadParams)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for x := 0; x < 2; x++ {
		x := x
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(1); k <= 30; k++ {
				b := rskt.New(spreadParams[x])
				b.Record(uint64(k), uint64(x))
				if err := sc.Receive(x, k, b); err != nil {
					t.Errorf("receive: %v", err)
					return
				}
				if _, err := sc.AggregateFor(x, k+1); err != nil {
					t.Errorf("aggregate: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
