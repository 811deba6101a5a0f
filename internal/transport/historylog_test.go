package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// TestHistoryLogHoldsReceivedBytes pins the epoch log's contents to the
// center's stored single-epoch cells, byte for byte. Delta-mode centers
// (both spread backends, delta size) log the upload as received, which
// must equal re-encoding the stored cell; the cumulative size center logs
// the recovered delta, not the cumulative upload.
func TestHistoryLogHoldsReceivedBytes(t *testing.T) {
	noLeak(t)
	for _, tc := range []struct {
		name   string
		kind   Kind
		sketch string
		delta  bool
	}{
		{"spread-rskt", KindSpread, SketchRskt, false},
		{"spread-vhll", KindSpread, SketchVhll, false},
		{"size-delta", KindSize, "", true},
		{"size-cumulative", KindSize, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				n, p, w = 4, 3, 32
				epochs  = n + 1 // the window still holds every stored cell
				seed    = 9
			)
			srv, err := ServeCenter(CenterConfig{
				Addr: "127.0.0.1:0", Kind: tc.kind, Sketch: tc.sketch, WindowN: n,
				Widths: map[int]int{0: w, 1: w / 2, 2: w}, M: 16, D: 4, Seed: seed,
				DeltaUploads: tc.delta, StoreDir: t.TempDir(), Logf: quietLogf,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			points := make([]*PointClient, p)
			for x := range points {
				pw := w
				if x == 1 {
					pw = w / 2
				}
				pc, err := DialPoint(PointConfig{
					Addr: srv.Addr().String(), Point: x, Kind: tc.kind, Sketch: tc.sketch,
					W: pw, M: 16, D: 4, Seed: seed, DeltaUploads: tc.delta,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer pc.Close()
				points[x] = pc
			}
			for k := 1; k <= epochs; k++ {
				for x, pc := range points {
					record(k, x, pc.Record)
				}
				for _, pc := range points {
					if err := pc.EndEpoch(); err != nil {
						t.Fatal(err)
					}
				}
				if !srv.WaitRounds(int64(k)) {
					t.Fatalf("center closed before round %d", k)
				}
			}
			waitStoreAppends(t, srv, p*epochs)
			for x := range points {
				for k := int64(1); k <= epochs; k++ {
					logged, ok, err := srv.store.Get(x, k)
					if err != nil || !ok {
						t.Fatalf("log cell (%d, %d): ok=%v err=%v", x, k, ok, err)
					}
					if want := storedCell(t, srv.eng, x, k); !bytes.Equal(logged, want) {
						t.Fatalf("log cell (%d, %d): %d bytes differ from the stored cell's %d-byte encoding",
							x, k, len(logged), len(want))
					}
				}
			}
		})
	}
}

// storedCell encodes the center's stored single-epoch cell for (point,
// epoch).
func storedCell(t *testing.T, eng centerEngine, point int, epoch int64) []byte {
	t.Helper()
	switch e := eng.(type) {
	case *engineCenter[*rskt.Sketch]:
		return marshalStored(t, e, point, epoch)
	case *engineCenter[*vhll.Sketch]:
		return marshalStored(t, e, point, epoch)
	case *engineCenter[*countmin.Sketch]:
		return marshalStored(t, e, point, epoch)
	}
	t.Fatalf("unexpected center engine %T", eng)
	return nil
}

func marshalStored[S core.Sketch[S]](t *testing.T, e *engineCenter[S], point int, epoch int64) []byte {
	t.Helper()
	b, ok, err := e.ctr.MarshalUpload(point, epoch, S.MarshalBinaryCompact)
	if err != nil || !ok {
		t.Fatalf("stored cell (%d, %d): ok=%v err=%v", point, epoch, ok, err)
	}
	return b
}

// TestHistorySpanSkipsOrphanedPartial places an epoch's partial cell in the
// next epoch's segment, as a late partial append does, and lets
// whole-segment retention evict the epoch's point cells around it. The
// log still spans the orphaned epoch, but the center's reported first
// epoch and the history replay's span start at the oldest epoch that
// holds a point cell.
func TestHistorySpanSkipsOrphanedPartial(t *testing.T) {
	noLeak(t)
	const (
		w, m = 8, 16
		seed = 21
	)
	sk := rskt.New(rskt.Params{W: w, M: m, Seed: seed})
	for e := uint64(0); e < 100; e++ {
		sk.Record(e%5, e)
	}
	cell, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := rskt.AppendIndex(nil, cell)
	if err != nil {
		t.Fatal(err)
	}
	partial := appendPartialCell([]int{0, 1}, cell, idx)

	// A segment rolls once it holds two point cells, or one point cell
	// and the larger partial cell, so the appends below seal
	//   [(0,1) (1,1)] [(0,2) (P,1)] [(1,2) (P,2)] [(0,3) (1,3)] [(P,3) (0,4)] ...
	// and retention to epoch 1 evicts only the first: epoch 1 keeps its
	// partial cell and none of its point cells.
	dir := t.TempDir()
	entry := int64(16 + len(cell) + 4)
	log, err := durable.OpenLog(durable.LogConfig{Dir: dir, MaxSegmentBytes: 8 + 2*entry})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		point int
		epoch int64
	}{{0, 1}, {1, 1}, {0, 2}, {partialCell, 1}, {1, 2}, {partialCell, 2},
		{0, 3}, {1, 3}, {partialCell, 3}, {0, 4}, {1, 4}, {partialCell, 4}} {
		blob := cell
		if c.point == partialCell {
			blob = partial
		}
		if err := log.Append(c.point, c.epoch, blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: 4,
		Widths: map[int]int{0: w, 1: w}, M: m, Seed: seed,
		StoreDir: dir, RetainEpochs: 3, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := srv.store.Span(); first != 1 {
		t.Fatalf("the log spans from epoch %d, want 1: the orphaned partial is not placed", first)
	}
	if h := srv.store.Held(1, 1, []int{0, 1, partialCell})[0]; len(h) != 1 || h[0] != partialCell {
		t.Fatalf("epoch 1 holds cells %v, want only its partial cell", h)
	}
	st := srv.Stats()
	if st.StoreFirstEpoch != 2 || st.StoreLastEpoch != 4 {
		t.Fatalf("reported store span [%d, %d], want [2, 4]", st.StoreFirstEpoch, st.StoreLastEpoch)
	}
	src := srv.eng.(*engineCenter[*rskt.Sketch]).source(srv.store)
	if first, last, ok := src.Span(); !ok || first != 2 || last != 4 {
		t.Fatalf("history span [%d, %d] ok=%v, want [2, 4]", first, last, ok)
	}
}
