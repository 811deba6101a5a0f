package transport

import (
	"testing"
)

func newStatePair(t *testing.T, kind Kind) (*CenterServer, *PointClient) {
	t.Helper()
	cfg := CenterConfig{
		Addr: "127.0.0.1:0", Kind: kind, WindowN: 5,
		Widths: map[int]int{0: 32}, M: 16, D: 4, Seed: 9, Logf: quietLogf,
	}
	srv, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := DialPoint(PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: kind, W: 32, M: 16, D: 4, Seed: 9,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, pc
}

func TestSpreadStateRoundTrip(t *testing.T) {
	srv, pc := newStatePair(t, KindSpread)
	defer srv.Close()
	defer pc.Close()

	for e := 0; e < 300; e++ {
		pc.Record(7, uint64(e))
	}
	if err := pc.EndEpoch(); err != nil { // epoch 2; C now holds epoch 1
		t.Fatal(err)
	}
	for e := 300; e < 400; e++ {
		pc.Record(7, uint64(e))
	}
	before, err := pc.QuerySpread(7)
	if err != nil {
		t.Fatal(err)
	}

	state, meta, err := pc.eng.saveState(false)
	if err != nil {
		t.Fatal(err)
	}

	// A "restarted" agent with fresh sketches restores the state.
	pc2, err := DialPoint(PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: KindSpread, W: 32, M: 16, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	if _, err := pc2.eng.loadState(state, meta); err != nil {
		t.Fatal(err)
	}
	if pc2.Epoch() != pc.Epoch() {
		t.Fatalf("restored epoch %d, want %d", pc2.Epoch(), pc.Epoch())
	}
	after, err := pc2.QuerySpread(7)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("restored estimate %.2f != original %.2f", after, before)
	}
}

func TestSizeStateRoundTrip(t *testing.T) {
	srv, pc := newStatePair(t, KindSize)
	defer srv.Close()
	defer pc.Close()
	for i := 0; i < 50; i++ {
		pc.Record(3, 0)
	}
	state, meta, err := pc.eng.saveState(false)
	if err != nil {
		t.Fatal(err)
	}
	pc2, err := DialPoint(PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: KindSize, W: 32, D: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	if _, err := pc2.eng.loadState(state, meta); err != nil {
		t.Fatal(err)
	}
	got, err := pc2.QuerySize(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("restored size = %d, want 50", got)
	}
}

func TestLoadStateRejectsMismatch(t *testing.T) {
	srvA, pcA := newStatePair(t, KindSpread)
	defer srvA.Close()
	defer pcA.Close()
	state, meta, err := pcA.eng.saveState(false)
	if err != nil {
		t.Fatal(err)
	}

	srvB, pcB := newStatePair(t, KindSize)
	defer srvB.Close()
	defer pcB.Close()
	if _, err := pcB.eng.loadState(state, meta); err == nil {
		t.Fatal("expected kind-mismatch error")
	}
	if _, err := pcB.eng.loadState([]byte("garbage!"), meta); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := pcB.eng.loadState(nil, meta); err == nil {
		t.Fatal("expected truncation error")
	}
}
