package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The epoch boundary folds each dirty ingest lane once per sketch it
// keeps: into B (then B into C' once) in delta mode, into C and C' in
// cumulative mode. These tests pin that cost, check that the calls which
// touch the sketch set mid-epoch (ExportState, ImportState,
// Recorder.Close) leave every boundary byte-identical, and check that a
// recycled upload is never still in use.

// dirtyLanes counts the lanes the next fold point will visit.
func dirtyLanes[S Sketch[S]](p *Point[S]) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.lanes {
		if l.dirty.Load() {
			n++
		}
	}
	return n
}

// TestEndEpochFoldsEachLaneOnce guards the boundary's cost: a delta-mode
// EndEpoch makes at most one Merge per dirty lane (the merge into C, which
// the boundary discards, is gone), a cumulative one at most two.
func TestEndEpochFoldsEachLaneOnce(t *testing.T) {
	for _, m := range []struct {
		name    string
		mode    Mode
		perLane int
	}{{"delta", ModeDelta, 1}, {"cumulative", ModeCumulative, 2}} {
		mode, perLane := m.mode, m.perLane
		t.Run(m.name, func(t *testing.T) {
			ops := &opCounter{}
			params := countmin.Params{D: 2, W: 64, Seed: 3}
			fresh := func() *countingSketch { return &countingSketch{sk: countmin.New(params), n: ops} }
			pt, err := NewPoint(0, fresh, EngineConfig[*countingSketch]{
				Design: "size", Mode: mode, Additive: true, Shards: 4,
				Sub: func(dst, src *countingSketch) error { return dst.sk.SubSketch(src.sk) },
			})
			if err != nil {
				t.Fatal(err)
			}
			recs := []*Recorder[*countingSketch]{pt.NewRecorder(), pt.NewRecorder()}
			agg := fresh()
			agg.Record(1, 0)
			sawMany := false
			for k := int64(1); k <= 8; k++ {
				// Epoch k touches k%4 spread flows on the shared lanes
				// and the recorders whose index matches its parity.
				for f := uint64(0); f < uint64(k%4)*16; f++ {
					pt.Record(f, 0)
				}
				for i, r := range recs {
					if int(k)%2 == i {
						r.Record(uint64(k), 0)
					}
				}
				if err := pt.ApplyAggregateCovAt(k, agg, 1); err != nil {
					t.Fatal(err)
				}
				dirty := dirtyLanes(pt)
				sawMany = sawMany || dirty > 2
				*ops = opCounter{}
				if up := pt.EndEpoch(); IsNil(up) {
					t.Fatal("nil upload")
				}
				if ops.merge > perLane*dirty {
					t.Fatalf("epoch %d: %d Merge calls (%d CopyFrom) for %d dirty lanes, want <= %d",
						k, ops.merge, ops.copy, dirty, perLane*dirty)
				}
			}
			if !sawMany {
				t.Fatal("no epoch had more than two dirty lanes; the guard checked nothing")
			}
		})
	}
}

// boundaryCheck is a generic check over one point design: mk builds a
// point, and agg is a push payload of the point's shape.
type boundaryCheck[S Sketch[S]] func(t *testing.T, mk func() *Point[S], agg S)

// runBoundaryDesigns runs a check over size-delta (additive),
// size-cumulative, spread-rskt and spread-vhll, each with one lane and
// with the default lane count.
func runBoundaryDesigns(t *testing.T, size boundaryCheck[*countmin.Sketch],
	spreadRskt boundaryCheck[*rskt.Sketch], spreadVhll boundaryCheck[*vhll.Sketch]) {
	cmP := countmin.Params{D: 3, W: 256, Seed: 7}
	rsP := rskt.Params{W: 64, M: 32, Seed: 7}
	vhP := vhll.Params{PhysicalRegisters: 2048, VirtualRegisters: 32, Seed: 7}
	freshVhll := func() *vhll.Sketch {
		s, err := vhll.New(vhP)
		if err != nil {
			panic(err)
		}
		return s
	}
	sizePoint := func(mode SizeMode, lanes int) func() *Point[*countmin.Sketch] {
		return func() *Point[*countmin.Sketch] {
			p, err := newSizePoint(0, cmP, mode, lanes)
			if err != nil {
				t.Fatal(err)
			}
			return p.Point
		}
	}
	spreadPoint := func(lanes int) func() *Point[*rskt.Sketch] {
		return func() *Point[*rskt.Sketch] {
			p, err := newSpreadPointOf(0, func() *rskt.Sketch { return rskt.New(rsP) }, lanes)
			if err != nil {
				t.Fatal(err)
			}
			return p.Point
		}
	}
	vhllPoint := func(lanes int) func() *Point[*vhll.Sketch] {
		return func() *Point[*vhll.Sketch] {
			p, err := newSpreadPointOf(0, freshVhll, lanes)
			if err != nil {
				t.Fatal(err)
			}
			return p.Point
		}
	}
	cmAgg, rsAgg, vhAgg := countmin.New(cmP), rskt.New(rsP), freshVhll()
	for f := uint64(0); f < 40; f++ {
		cmAgg.Add(f, int64(f%5+1))
		for e := uint64(0); e < f%7+1; e++ {
			rsAgg.Record(f, 1000+e)
			vhAgg.Record(f, 1000+e)
		}
	}
	for _, lanes := range []int{1, 0} { // 0 = the GOMAXPROCS default
		t.Run(fmt.Sprintf("size-delta/lanes=%d", lanes), func(t *testing.T) { size(t, sizePoint(SizeModeDelta, lanes), cmAgg) })
		t.Run(fmt.Sprintf("size-cumulative/lanes=%d", lanes), func(t *testing.T) { size(t, sizePoint(SizeModeCumulative, lanes), cmAgg) })
		t.Run(fmt.Sprintf("spread-rskt/lanes=%d", lanes), func(t *testing.T) { spreadRskt(t, spreadPoint(lanes), rsAgg) })
		t.Run(fmt.Sprintf("spread-vhll/lanes=%d", lanes), func(t *testing.T) { spreadVhll(t, vhllPoint(lanes), vhAgg) })
	}
}

// epochPackets is epoch k's traffic: a few hundred packets over 60 flows.
func epochPackets(k int64) []SpreadPacket {
	ps := make([]SpreadPacket, 300)
	for i := range ps {
		f := uint64(i*7+int(k)*13) % 60
		ps[i] = SpreadPacket{Flow: f, Elem: uint64(k)*1000 + uint64(i)}
	}
	return ps
}

// feedMixed records ps through Record, RecordBatch and the recorder, a
// third each.
func feedMixed[S Sketch[S]](p *Point[S], rec *Recorder[S], ps []SpreadPacket) {
	third := len(ps) / 3
	for _, q := range ps[:third] {
		p.Record(q.Flow, q.Elem)
	}
	p.RecordBatch(ps[third : 2*third])
	rec.RecordBatch(ps[2*third:])
}

// applyPushes merges epoch k's center pushes: the aggregate into C' and
// the enhancement into C.
func applyPushes[S Sketch[S]](t *testing.T, p *Point[S], k int64, agg S) {
	t.Helper()
	if err := p.ApplyAggregateCovAt(k, agg, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyEnhancementAt(k, agg); err != nil {
		t.Fatal(err)
	}
}

// checkSameBoundary compares two points' uploads and their C and C' after
// a boundary, byte for byte.
func checkSameBoundary[S Sketch[S]](t *testing.T, k int64, want, got *Point[S], wantUp, gotUp S, wantMeta, gotMeta UploadMeta) {
	t.Helper()
	if wantMeta != gotMeta {
		t.Fatalf("epoch %d: upload meta %+v, want %+v", k, gotMeta, wantMeta)
	}
	for _, s := range []struct {
		name      string
		want, got S
	}{{"upload", wantUp, gotUp}, {"C", want.c, got.c}, {"C'", want.cp, got.cp}} {
		if !bytes.Equal(compactBytes(t, s.want), compactBytes(t, s.got)) {
			t.Fatalf("epoch %d: %s differs from the reference run", k, s.name)
		}
	}
}

// checkMidEpochCalls runs two points through the same traffic and pushes.
// One of them also takes a checkpoint (ExportState, then ImportState) and
// closes a recorder holding records, in the middle of the epoch; every
// boundary must match the plain run byte for byte. The imported lineage
// answers a re-push of the epoch's aggregate as the exported one does.
func checkMidEpochCalls[S Sketch[S]](t *testing.T, mk func() *Point[S], agg S) {
	ref, sub := mk(), mk()
	refRec, subRec := ref.NewRecorder(), sub.NewRecorder()
	for k := int64(1); k <= 9; k++ {
		ps := epochPackets(k)
		half := len(ps) / 2
		if k > 1 {
			applyPushes(t, ref, k, agg)
			applyPushes(t, sub, k, agg)
		}
		feedMixed(ref, refRec, ps[:half])
		feedMixed(sub, subRec, ps[:half])
		// k%3: 0 = no calls; 1 = checkpoint and restore, then close;
		// 2 = export only, then close.
		if k%3 != 0 {
			st := sub.ExportState()
			if k%3 == 1 {
				if k > 1 {
					checkRepush(t, k, "exported point", sub, agg)
				}
				if err := sub.ImportState(st); err != nil {
					t.Fatal(err)
				}
				if k > 1 {
					checkRepush(t, k, "imported point", sub, agg)
				}
				twin := mk()
				if err := twin.ImportState(st); err != nil {
					t.Fatal(err)
				}
				checkRepush(t, k, "fresh importer", twin, agg)
			}
			late := ps[half : half+20]
			refRec.RecordBatch(late)
			subRec.RecordBatch(late)
			subRec.Close()
			subRec = sub.NewRecorder()
			half += len(late)
		}
		feedMixed(ref, refRec, ps[half:])
		feedMixed(sub, subRec, ps[half:])
		wantUp, wantMeta := ref.EndEpochMeta(false)
		gotUp, gotMeta := sub.EndEpochMeta(false)
		checkSameBoundary(t, k, ref, sub, wantUp, gotUp, wantMeta, gotMeta)
	}
}

// checkRepush re-pushes epoch k's aggregate to p, whose lineage is the
// checkpointed point's: merged during k > 1, so p must refuse it as a
// duplicate; not yet pushed at k = 1, so p must take it.
func checkRepush[S Sketch[S]](t *testing.T, k int64, name string, p *Point[S], agg S) {
	t.Helper()
	err := p.ApplyAggregateCovAt(k, agg, 1)
	switch {
	case k == 1 && err != nil:
		t.Fatalf("epoch 1: %s refused an aggregate never merged: %v", name, err)
	case k > 1 && !errors.Is(err, ErrDuplicatePush):
		t.Fatalf("epoch %d: %s re-push of a merged aggregate returned %v, want ErrDuplicatePush", k, name, err)
	}
}

// TestMidEpochStateCallsKeepBoundary: ExportState, ImportState and
// Recorder.Close in the middle of an epoch change no upload and no C or
// C'. A restored B already sits in C', so in the additive delta design a
// boundary that merged it into C' again would double its counts.
func TestMidEpochStateCallsKeepBoundary(t *testing.T) {
	runBoundaryDesigns(t, checkMidEpochCalls, checkMidEpochCalls, checkMidEpochCalls)
}

// checkRecycle runs two points through 20 epochs of the same traffic and
// pushes; one hands every encoded upload back with Recycle. A recycled
// sketch still aliased by the point would change a later upload.
func checkRecycle[S Sketch[S]](t *testing.T, mk func() *Point[S], agg S) {
	ref, sub := mk(), mk()
	refRec, subRec := ref.NewRecorder(), sub.NewRecorder()
	for k := int64(1); k <= 20; k++ {
		if k > 1 {
			applyPushes(t, ref, k, agg)
			applyPushes(t, sub, k, agg)
		}
		ps := epochPackets(k)
		feedMixed(ref, refRec, ps)
		feedMixed(sub, subRec, ps)
		rebase := k%7 == 0 // cumulative mode only; delta ignores it
		wantUp, wantMeta := ref.EndEpochMeta(rebase)
		gotUp, gotMeta := sub.EndEpochMeta(rebase)
		checkSameBoundary(t, k, ref, sub, wantUp, gotUp, wantMeta, gotMeta)
		sub.Recycle(gotUp)
	}
}

// TestRecycledUploadsMatch: uploads are byte-identical with and without
// Recycle.
func TestRecycledUploadsMatch(t *testing.T) {
	runBoundaryDesigns(t, checkRecycle, checkRecycle, checkRecycle)
}

// allocatedBytes is the heap the calls in fn allocate.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecycleSteadyStateAllocs: once warm, a boundary that recycles its
// upload (EndEpoch, encode, Recycle) allocates less than one sketch per
// epoch, in both upload modes — the encoded bytes, not a new sketch.
func TestRecycleSteadyStateAllocs(t *testing.T) {
	params := countmin.Params{D: 4, W: 4096, Seed: 5}
	for name, mode := range map[string]SizeMode{"delta": SizeModeDelta, "cumulative": SizeModeCumulative} {
		t.Run(name, func(t *testing.T) {
			pt, err := newSizePoint(0, params, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			epoch := func() {
				for f := uint64(0); f < 500; f++ {
					pt.Record(f)
				}
				up := pt.EndEpoch()
				if _, err := up.MarshalBinaryCompact(); err != nil {
					t.Fatal(err)
				}
				pt.Recycle(up)
			}
			sketch := allocatedBytes(func() { _ = pt.NewSketch() })
			for i := 0; i < 3; i++ {
				epoch()
			}
			const epochs = 10
			got := allocatedBytes(func() {
				for i := 0; i < epochs; i++ {
					epoch()
				}
			}) / epochs
			if got >= sketch {
				t.Fatalf("%d B allocated per epoch, want < %d (one sketch)", got, sketch)
			}
		})
	}
}

// TestRecycleConcurrentWithIngest runs recycling boundaries from two
// goroutines beside writers, recorders that close, queries and snapshots
// (run it under -race): every record lands in exactly one upload.
func TestRecycleConcurrentWithIngest(t *testing.T) {
	pt, err := newSizePoint(0, countmin.Params{D: 2, W: 64, Seed: 1}, SizeModeDelta, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, flow = 3, 5000, 7
	var writing, others sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rec := pt.NewRecorder()
			defer rec.Close()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					pt.Record(flow)
				} else {
					rec.Record(flow, 0)
				}
			}
		}()
	}
	// A single flow makes every CountMin estimate exact.
	var total atomic.Int64
	boundary := func() {
		up := pt.EndEpoch()
		total.Add(int64(up.EstimateUnion(flow, nil)))
		if _, err := up.MarshalBinaryCompact(); err != nil {
			t.Error(err)
		}
		pt.Recycle(up)
	}
	stop := make(chan struct{})
	others.Add(2)
	go func() {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = pt.Query(flow)
			_ = pt.ExportState()
		}
	}()
	go func() {
		defer others.Done()
		for i := 0; i < 25; i++ {
			boundary()
		}
	}()
	for i := 0; i < 25; i++ {
		boundary()
	}
	writing.Wait()
	close(stop)
	others.Wait()
	boundary()
	if got := total.Load(); got != writers*perWriter {
		t.Fatalf("uploads hold %d records, want %d", got, writers*perWriter)
	}
}
