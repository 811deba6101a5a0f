package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
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
