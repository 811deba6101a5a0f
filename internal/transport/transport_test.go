package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/faultnet"
	"repro/internal/rskt"
	"repro/internal/vate"
	"repro/internal/xhash"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func quietLogf(string, ...any) {}

// noLeak fails t unless, once the test's Close calls have run, the
// goroutine count returns to its value at the call within 2s: every
// accept, handler, reader, heartbeat and redial goroutine must end with
// the node that owns it. Call it first, so its cleanup runs last. The
// transport tests do not run in parallel, so the count is the test's own.
func noLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines outlived their nodes:\n%s",
					runtime.NumGoroutine()-base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestLiveSpreadClusterMatchesIdeal(t *testing.T) {
	const (
		n, p, w, m = 5, 3, 32, 16
		epochs     = 8
		seed       = 99
	)
	widths := map[int]int{0: w, 1: w, 2: w}
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: widths, M: m, Seed: seed, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: KindSpread,
			W: w, M: m, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}

	// Deterministic per-epoch packets, mirrored into an ideal sketch for
	// the final window.
	record := func(k, x int, fn func(f, e uint64)) {
		for f := uint64(0); f < 10; f++ {
			for i := 0; i < 20; i++ {
				e := xhash.Hash64(uint64(k*1000+x*100+i), f) % 64
				fn(f, f<<32|e)
			}
		}
	}
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		k := k
		waitFor(t, fmt.Sprintf("round %d pushes", k), func() bool {
			for x := 0; x < p; x++ {
				st := points[x].Stats()
				if st.PushesApplied+st.PushesLate < int64(k) {
					return false
				}
			}
			return true
		})
	}
	for x := 0; x < p; x++ {
		if late := points[x].Stats().PushesLate; late != 0 {
			t.Fatalf("point %d dropped %d pushes on loopback", x, late)
		}
	}

	// Ideal: all points epochs kNext-n+1..kNext-2, local epoch kNext-1.
	kNext := epochs + 1
	for x := 0; x < p; x++ {
		ideal := rskt.New(rskt.Params{W: w, M: m, Seed: seed})
		for k := kNext - n + 1; k <= kNext-2; k++ {
			for y := 0; y < p; y++ {
				record(k, y, ideal.Record)
			}
		}
		record(kNext-1, x, ideal.Record)
		for f := uint64(0); f < 10; f++ {
			got, err := points[x].QuerySpread(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := ideal.Estimate(f); got != want {
				t.Fatalf("point %d flow %d: live %.4f != ideal %.4f", x, f, got, want)
			}
		}
	}
}

func TestLiveSizeClusterMatchesIdeal(t *testing.T) {
	const (
		n, p, w, d = 5, 2, 64, 4
		epochs     = 7
		seed       = 7
	)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSize, WindowN: n,
		Widths: map[int]int{0: w, 1: w}, D: d, Seed: seed, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	points := make([]*PointClient, p)
	for x := 0; x < p; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: KindSize,
			W: w, D: d, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}

	record := func(k, x int, fn func(f, e uint64)) {
		for f := uint64(0); f < 20; f++ {
			for i := 0; i < int(f%5)+k%3+1; i++ {
				fn(f, 0)
			}
		}
	}
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			record(k, x, points[x].Record)
		}
		for x := 0; x < p; x++ {
			if err := points[x].EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		k := k
		waitFor(t, fmt.Sprintf("round %d pushes", k), func() bool {
			for x := 0; x < p; x++ {
				st := points[x].Stats()
				if st.PushesApplied+st.PushesLate < int64(k) {
					return false
				}
			}
			return true
		})
	}

	kNext := epochs + 1
	for x := 0; x < p; x++ {
		ideal := countmin.New(countmin.Params{D: d, W: w, Seed: seed})
		wrap := func(f, e uint64) { ideal.Record(f, 0) }
		for k := kNext - n + 1; k <= kNext-2; k++ {
			for y := 0; y < p; y++ {
				record(k, y, wrap)
			}
		}
		record(kNext-1, x, wrap)
		for f := uint64(0); f < 20; f++ {
			got, err := points[x].QuerySize(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := ideal.Estimate(f); got != want {
				t.Fatalf("point %d flow %d: live %d != ideal %d", x, f, got, want)
			}
		}
	}
}

func TestServeCenterRejectsBadConfig(t *testing.T) {
	if _, err := ServeCenter(CenterConfig{Addr: "127.0.0.1:0", Kind: "bogus", Logf: quietLogf}); err == nil {
		t.Fatal("expected kind error")
	}
	if _, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSize, WindowN: 1,
		Widths: map[int]int{0: 4}, D: 4, Logf: quietLogf,
	}); err == nil {
		t.Fatal("expected window error")
	}
}

// TestHelloMismatchDropsConnection runs every Hello rejection against both
// users of the child-facing half, a center and a relay: a point that
// mismatches the topology in one field must be dropped without a Welcome,
// so its dial fails and nothing registers.
func TestHelloMismatchDropsConnection(t *testing.T) {
	noLeak(t)
	const w = 64
	cases := []struct {
		name    string
		point   func(*PointConfig)
		weights map[int]int // the server's topology weights
	}{
		{"unknown_id", func(c *PointConfig) { c.Point = 9 }, nil},
		{"wrong_kind", func(c *PointConfig) { c.Kind = KindSize }, nil},
		{"wrong_width", func(c *PointConfig) { c.W = 2 * w }, nil},
		{"wrong_shard", func(c *PointConfig) { c.Shard = 1 }, nil},
		{"wrong_weight", nil, map[int]int{0: 2}},
	}
	for _, server := range []string{"center", "relay"} {
		for _, tc := range cases {
			t.Run(server+"/"+tc.name, func(t *testing.T) {
				fnet := faultnet.New(1)
				widths := map[int]int{0: w, 1: w}
				ccfg := CenterConfig{
					Listener: fnet.Listen(), Kind: KindSpread, WindowN: 5,
					Widths: widths, Weights: tc.weights, M: 4, Seed: 1, Logf: quietLogf,
				}
				if server == "relay" {
					leaves := 0
					for id := range widths {
						leaves += normWeight(tc.weights[id])
					}
					ccfg.Widths, ccfg.Weights = map[int]int{trRelayID: w}, map[int]int{trRelayID: leaves}
				}
				srv, err := ServeCenter(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				dial := fnet.DialerTo(faultnet.DefaultNode)
				connected := func() int { return srv.Stats().ConnectedPoints }
				if server == "relay" {
					rel, err := ServeRelay(RelayConfig{
						Listener: fnet.ListenAt("relay"), UpstreamAddr: "faultnet:center", UpstreamDial: dial,
						Relay: trRelayID, Kind: KindSpread, WindowN: 5,
						Widths: widths, Weights: tc.weights, M: 4, Seed: 1, Logf: quietLogf,
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { rel.Close() })
					dial = fnet.DialerTo("relay")
					connected = func() int { return rel.Stats().ConnectedChildren }
				}
				cfg := PointConfig{Addr: "faultnet", Dial: dial, Point: 0, Kind: KindSpread, W: w, M: 4, D: 2, Seed: 1}
				if tc.point != nil {
					tc.point(&cfg)
				}
				if pc, err := DialPoint(cfg); err == nil {
					pc.Close()
					t.Fatal("dial succeeded despite the hello mismatch")
				}
				if n := connected(); n != 0 {
					t.Fatalf("%s registered %d children after a rejected hello, want 0", server, n)
				}
				// Control: a point matching the topology is still admitted.
				ok := PointConfig{Addr: "faultnet", Dial: dial, Point: 1, Kind: KindSpread, W: w, M: 4, Seed: 1}
				pc, err := DialPoint(ok)
				if err != nil {
					t.Fatalf("matching point rejected: %v", err)
				}
				pc.Close()
			})
		}
	}
}

func TestQueryRPCRoundTrip(t *testing.T) {
	srv, err := ServeQueries("127.0.0.1:0", func(flow uint64) float64 {
		return float64(flow) * 2
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for f := uint64(0); f < 100; f++ {
		got, err := qc.Query(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(f)*2 {
			t.Fatalf("Query(%d) = %v", f, got)
		}
	}
	if v, err := qc.QuerySize(21); err != nil || v != 42 {
		t.Fatalf("QuerySize = %d, %v", v, err)
	}
	if v, err := qc.QuerySpread(21); err != nil || v != 42 {
		t.Fatalf("QuerySpread = %v, %v", v, err)
	}
}

// Close must not wait on a client that keeps its connection open: the
// server severs it, and the client's next query fails.
func TestQueryServerCloseWithOpenClient(t *testing.T) {
	noLeak(t)
	srv, err := ServeQueries("127.0.0.1:0", func(flow uint64) float64 { return float64(flow) })
	if err != nil {
		t.Fatal(err)
	}
	qc, err := DialQuery(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	if got, err := qc.Query(3); err != nil || got != 3 {
		t.Fatalf("Query(3) = %v, %v", got, err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("QueryServer.Close still blocked 1s after it was called with a client connected")
	}
	if got, err := qc.Query(4); err == nil {
		t.Fatalf("Query after Close = %v, want an error", got)
	}
}

func TestQueryRPCCoverage(t *testing.T) {
	cov := core.Coverage{EpochsMerged: 5, EpochsExpected: 8}
	srv, err := ServeQueriesCov("127.0.0.1:0", func(flow uint64) (float64, core.Coverage) {
		return float64(flow) + 0.5, cov
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	// Plain and coverage requests interleave on one connection.
	for f := uint64(0); f < 20; f++ {
		if got, err := qc.Query(f); err != nil || got != float64(f)+0.5 {
			t.Fatalf("Query(%d) = %v, %v", f, got, err)
		}
		got, gotCov, err := qc.QueryCov(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(f)+0.5 || gotCov != cov {
			t.Fatalf("QueryCov(%d) = %v, %+v", f, got, gotCov)
		}
	}

	// A legacy handler served through ServeQueries answers coverage
	// requests with a whole (empty-expected) window.
	legacy, err := ServeQueries("127.0.0.1:0", func(flow uint64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	qc2, err := DialQuery(legacy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc2.Close()
	v, c2, err := qc2.QueryCov(7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !c2.Full() || c2.Fraction() != 1 {
		t.Fatalf("legacy QueryCov = %v, %+v", v, c2)
	}
}

func TestNetworkwideBaselineOverTCP(t *testing.T) {
	// The paper's baseline deployment: local VATE + remote peers over
	// real sockets.
	mk := func() *vate.Sketch {
		return vate.New(vate.Params{VirtualBits: 512, PhysicalCells: 1 << 16, WindowN: 5, Seed: 4})
	}
	peerSketch := mk()
	for e := 0; e < 200; e++ {
		peerSketch.Record(3, uint64(e)+5000)
	}
	srv, err := ServeQueries("127.0.0.1:0", func(flow uint64) float64 {
		return peerSketch.Estimate(flow)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	nw := &baseline.NetworkwideSpread{Local: mk(), Peers: []baseline.SpreadPeer{qc}}
	for e := 0; e < 300; e++ {
		nw.Record(3, uint64(e))
	}
	got, err := nw.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if got < 350 || got > 650 {
		t.Fatalf("networkwide spread over TCP = %.0f, want ~500", got)
	}
}
