package transport

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
)

// TestSketchPoolPerWidth pins the decode-scratch pools to the shapes a
// center holds: after decoding a payload from each of 16 children over
// widths w, 2w and 4w, the history pool keeps three pools, not one per
// child, and a pooled sketch of one width serves every child of it.
func TestSketchPoolPerWidth(t *testing.T) {
	widths := map[int]int{}
	for x := 0; x < 16; x++ {
		widths[x] = 32 << (x % 3)
	}
	for _, kind := range []Kind{KindSize, KindSpread} {
		b, err := backendFor(kind, 16, 2, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := b.center(4, widths)
		if err != nil {
			t.Fatal(err)
		}
		switch e := ce.(type) {
		case *engineCenter[*countmin.Sketch]:
			checkPoolPerWidth(t, e, widths)
		case *engineCenter[*rskt.Sketch]:
			checkPoolPerWidth(t, e, widths)
		default:
			t.Fatalf("unexpected engine %T", ce)
		}
	}
}

func checkPoolPerWidth[S core.Sketch[S]](t *testing.T, e *engineCenter[S], widths map[int]int) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for x, w := range widths {
			proto, _ := e.ctr.NewSketch(x)
			data, err := proto.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			err = e.hist.use(x, data, func(sk S) error {
				if sk.Width() != w {
					t.Fatalf("point %d decoded at width %d, want %d", x, sk.Width(), w)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pools := 0
	e.hist.pools.Range(func(any, any) bool { pools++; return true })
	if pools != 3 {
		t.Fatalf("%d decode pools for 16 points over 3 widths, want 3", pools)
	}
	if err := e.hist.use(99, nil, func(S) error { return nil }); err == nil {
		t.Fatal("a payload from an unknown point decoded")
	}
}

// TestColdEpochAllocatesNoWideSketch pins the cold history read to the
// flow's bytes: replaying one epoch from its partial cell, with no replay
// cache to recycle buffers, allocates the cell it reads and the flow's
// projection — under half a maximum-width sketch, where decoding the
// partial allocated a whole one per epoch.
func TestColdEpochAllocatesNoWideSketch(t *testing.T) {
	for _, kind := range []Kind{KindSize, KindSpread} {
		t.Run(string(kind), func(t *testing.T) {
			ce, log := wideStore(t, kind)
			switch e := ce.(type) {
			case *engineCenter[*countmin.Sketch]:
				checkColdAllocs(t, e, log)
			case *engineCenter[*rskt.Sketch]:
				checkColdAllocs(t, e, log)
			default:
				t.Fatalf("unexpected engine %T", ce)
			}
		})
	}
}

// wideStoreEpochs is how many epochs wideStore logs.
const wideStoreEpochs = 3

// wideStore returns a center of kind over children of widths 1024, 2048
// and 4096 and an epoch log holding its point cells and partial cells for
// epochs 1..wideStoreEpochs.
func wideStore(t *testing.T, kind Kind) (centerEngine, *durable.Log) {
	t.Helper()
	widths := map[int]int{0: 1024, 1: 2048, 2: 4096}
	b, err := backendFor(kind, 64, 4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := b.center(4, widths)
	if err != nil {
		t.Fatal(err)
	}
	log, err := durable.OpenLog(durable.LogConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	for x, w := range widths {
		pe, err := b.point(x, w)
		if err != nil {
			t.Fatal(err)
		}
		pe.SetTopology(len(widths), 4)
		for k := 1; k <= wideStoreEpochs; k++ {
			for i := 0; i < 5000; i++ {
				pe.Record(uint64(i%700), uint64(i*k))
			}
			epoch, data, meta, err := pe.endEpoch(false)
			if err != nil {
				t.Fatal(err)
			}
			up := Upload{Point: x, Epoch: epoch, Sketch: data, AggApplied: meta.AggApplied, EnhApplied: meta.EnhApplied, Rebase: meta.Rebase}
			if _, err := ce.receive(up); err != nil {
				t.Fatal(err)
			}
			cell, ok, err := ce.logCell(up)
			if err != nil || !ok {
				t.Fatalf("logCell: ok=%v err=%v", ok, err)
			}
			if err := log.Append(x, epoch, cell); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := int64(1); k <= wideStoreEpochs; k++ {
		cell, ok, err := ce.logPartial(k)
		if err != nil || !ok {
			t.Fatalf("logPartial(%d): ok=%v err=%v", k, ok, err)
		}
		if err := log.Append(partialCell, k, cell); err != nil {
			t.Fatal(err)
		}
	}
	return ce, log
}

// TestPreviousLayoutWidePartial: a partial cell of the layout before the
// encoding's length and block index (ids, then the bare encoding) whose
// first encoding bytes read as a length that fits the cell — a CountMin
// encoding of depth 4 reads as 1220 — is still not read as a partial:
// its epochs replay from the point cells and answer as the cells-only
// replay does, bit for bit.
func TestPreviousLayoutWidePartial(t *testing.T) {
	for _, kind := range []Kind{KindSize, KindSpread} {
		t.Run(string(kind), func(t *testing.T) {
			ce, log := wideStore(t, kind)
			fits := false
			for k := int64(1); k <= wideStoreEpochs; k++ {
				blob, _, err := log.Get(partialCell, k)
				if err != nil {
					t.Fatal(err)
				}
				ids, body, err := parsePartialCell(blob)
				if err != nil {
					t.Fatal(err)
				}
				enc, _, err := splitPartialBody(body)
				if err != nil {
					t.Fatal(err)
				}
				old := appender{}
				old.u32(len(ids))
				for _, id := range ids {
					old.u32(id)
				}
				old.raw(enc)
				if _, _, err := splitPartialBody(enc); err == nil {
					fits = true
				}
				if err := log.Append(partialCell, k, old.b); err != nil {
					t.Fatal(err)
				}
			}
			if kind == KindSize && !fits {
				t.Fatal("no previous-layout cell reads as a length that fits it")
			}
			switch e := ce.(type) {
			case *engineCenter[*countmin.Sketch]:
				checkPreviousLayout(t, e, log)
			case *engineCenter[*rskt.Sketch]:
				checkPreviousLayout(t, e, log)
			default:
				t.Fatalf("unexpected engine %T", ce)
			}
		})
	}
}

func checkPreviousLayout[S core.Sketch[S]](t *testing.T, e *engineCenter[S], log *durable.Log) {
	t.Helper()
	for f := uint64(0); f < 8; f++ {
		partial, cells := e.replayReads()
		got, cov, err := e.historyRange(f, 1, wideStoreEpochs, log)
		if err != nil {
			t.Fatalf("flow %d: %v", f, err)
		}
		if p, c := e.replayReads(); p != partial || c-cells != wideStoreEpochs {
			t.Fatalf("flow %d: %d epochs from partials, %d from cells; want every one from cells", f, p-partial, c-cells)
		}
		want, wantCov, err := cellsOnlyQuery(e, log, f, false, 1, wideStoreEpochs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || cov != wantCov {
			t.Fatalf("flow %d = %v %+v, from the cells %v %+v", f, got, cov, want, wantCov)
		}
	}
}

func checkColdAllocs[S core.Sketch[S]](t *testing.T, e *engineCenter[S], log *durable.Log) {
	t.Helper()
	wide := e.ctr.NewPartialSketch().HeapBytes()
	src := e.source(log)
	const runs = 50
	query := func(i int) {
		if _, _, err := e.ctr.QueryRangeFrom(uint64(i), 2, 2, src); err != nil {
			t.Fatal(err)
		}
	}
	query(0) // warm the log's read buffers
	partial, _ := e.replayReads()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query(i)
	}
	runtime.ReadMemStats(&after)
	if p, _ := e.replayReads(); p-partial != runs {
		t.Fatalf("%d of %d cold epochs read from the partial cell", p-partial, runs)
	}
	if per := int(after.TotalAlloc-before.TotalAlloc) / runs; per > wide/2 {
		t.Fatalf("a cold epoch allocates %d bytes; a %d-byte wide sketch is the decode this read avoids", per, wide)
	}
}
