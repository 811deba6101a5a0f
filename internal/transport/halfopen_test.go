package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// The half-open matrix: a peer's host vanishes without FIN or RST
// (faultnet.Link.HalfOpen), so its connection neither errors nor closes —
// reads starve and writes block forever. Nothing in the message-scripted
// fault matrix detects this; only the liveness layer does: servers bound
// every child decode with ReadTimeout and starve out silent children
// (heartbeats keep live-but-idle ones fed), writers bound every frame
// with WriteTimeout. Each scenario here ends exactly as the fault
// matrices do — full coverage and oracle equality over the healthy
// window — proving the evicted peer re-admits through the ordinary
// StateEpoch resync handshake with nothing lost.
//
// Timeouts are tiered so exactly one mechanism fires per scenario: the
// detecting side's bound is several times shorter than every other
// timeout in play, which keeps the asserted counters deterministic even
// under the race detector on a loaded machine.

const (
	hoHB          = 20 * time.Millisecond   // client heartbeat cadence
	hoServerRead  = 300 * time.Millisecond  // server-side child read bound
	hoServerWrite = 300 * time.Millisecond  // server-side write bound
	hoClientWrite = 2000 * time.Millisecond // client write bound (never first)
	hoWait        = 10 * time.Second        // watchdog on every blocking wait
)

// hoEpoch runs one fault-free epoch k and waits for its round to land
// everywhere. Unlike the fault matrices' push-count bookkeeping it
// synchronizes on epoch numbers (WaitPushEpoch), which stays correct no
// matter how many reconnect re-pushes an earlier eviction added. The
// round over epoch k's uploads pushes with ForEpoch k+1 (the epoch whose
// queries it serves), so that is the number to wait for.
func hoEpoch(t *testing.T, srv *CenterServer, pts []*PointClient, k int) {
	t.Helper()
	for x := range pts {
		record(k, x, pts[x].Record)
	}
	for x := range pts {
		if err := pts[x].EndEpoch(); err != nil {
			t.Fatalf("point %d EndEpoch(%d): %v", x, k, err)
		}
	}
	if !srv.WaitRounds(int64(k)) {
		t.Fatalf("epoch %d: center closed before round", k)
	}
	for x := range pts {
		if !pts[x].WaitPushEpoch(int64(k)+1, hoWait) {
			t.Fatalf("epoch %d: point %d never saw the push", k, x)
		}
	}
}

// Half-open scenario 1, center path: point 1's host vanishes. Its
// heartbeats stop arriving, the center's read deadline starves the silent
// connection out, and the point re-admits through Redial with its
// buffered epoch replayed.
func TestHalfOpenPointEvictedAndReadmitted(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind Kind) {
		fnet := faultnet.New(fmSeed)
		widths := map[int]int{}
		for x := 0; x < fmP; x++ {
			widths[x] = fmW
		}
		srv, err := ServeCenter(CenterConfig{
			Listener: fnet.Listen(), Kind: kind, WindowN: fmN,
			Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
			ReadTimeout: hoServerRead, WriteTimeout: hoServerWrite,
			Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		var links []*faultnet.Link
		var pts []*PointClient
		for x := 0; x < fmP; x++ {
			link := fnet.Link()
			pc, err := DialPoint(PointConfig{
				Addr: "faultnet", Point: x, Kind: kind,
				W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
				HeartbeatEvery: hoHB, WriteTimeout: hoClientWrite,
			})
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, link)
			pts = append(pts, pc)
		}
		t.Cleanup(func() {
			for _, pc := range pts {
				pc.Close()
			}
		})

		for k := 1; k <= 3; k++ {
			hoEpoch(t, srv, pts, k)
		}

		// Point 1's host vanishes. No frame or heartbeat can arrive, so the
		// center's next bounded decode expires and evicts the connection.
		links[1].HalfOpen()
		if !srv.WaitConnectedFor(1, hoWait) {
			t.Fatal("center never evicted the half-open point")
		}
		if got := srv.Stats().Evictions; got < 1 {
			t.Fatalf("center Evictions = %d, want >= 1", got)
		}

		// Epoch 4 proceeds regardless: point 0 uploads normally; point 1's
		// epoch ends locally, its upload fails onto the retransmit buffer.
		for x := range pts {
			record(4, x, pts[x].Record)
		}
		if err := pts[0].EndEpoch(); err != nil {
			t.Fatalf("point 0 EndEpoch(4): %v", err)
		}
		if err := pts[1].EndEpoch(); err == nil {
			t.Fatal("point 1 EndEpoch(4) must fail on the evicted connection")
		}

		// Re-admission is the ordinary resync handshake: Redial sends Hello
		// with the point's StateEpoch, the retransmit buffer replays epoch
		// 4, and the stalled round completes.
		if err := pts[1].Redial(); err != nil {
			t.Fatalf("point 1 redial: %v", err)
		}
		if !srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after re-admission")
		}
		for x := range pts {
			if !pts[x].WaitPushEpoch(5, hoWait) {
				t.Fatalf("point %d never saw the round-4 push", x)
			}
		}
		if st := pts[1].Stats(); st.UploadsRetried < 1 {
			t.Fatalf("point 1 UploadsRetried = %d, want >= 1 (resync replay)", st.UploadsRetried)
		}

		// A few healthy epochs later nothing distinguishes this cluster
		// from one that never faulted.
		for k := 5; k <= 8; k++ {
			hoEpoch(t, srv, pts, k)
		}
		for x := range pts {
			if cov := pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			checkOracleQueries(t, kind, healthyWindow(x, 9), "half-open center path",
				pts[x].QuerySpread, pts[x].QuerySize)
		}
		if ss := srv.Stats(); ss.HeartbeatsReceived == 0 {
			t.Fatal("center accepted no heartbeats; the liveness layer never ran")
		}
		if st := pts[0].Stats(); st.HeartbeatsSent == 0 {
			t.Fatal("point 0 sent no heartbeats; the liveness layer never ran")
		}
	})
}

// Half-open scenario 2, relay path: a leaf point's host vanishes below an
// aggregation relay. The relay's own read deadline evicts the silent
// child — the center never learns anything happened — and the child
// re-admits through the relay's resync handshake.
func TestHalfOpenRelayChildEvictedAndReadmitted(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind Kind) {
		fnet := faultnet.New(fmSeed)
		delta := kind == KindSize
		srv, err := ServeCenter(CenterConfig{
			Listener: fnet.Listen(), Kind: kind, WindowN: fmN,
			Widths:  map[int]int{trRelayID: fmW},
			Weights: map[int]int{trRelayID: fmP},
			M:       fmM, D: fmD, Seed: fmSeed,
			DeltaUploads: delta, Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		up := fnet.LinkTo(faultnet.DefaultNode)
		widths := map[int]int{}
		for x := 0; x < fmP; x++ {
			widths[x] = fmW
		}
		relay, err := ServeRelay(RelayConfig{
			Listener:     fnet.ListenAt("relay"),
			UpstreamAddr: "faultnet:center", UpstreamDial: up.Dial,
			Relay: trRelayID, Kind: kind, WindowN: fmN,
			Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
			RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond,
			ReadTimeout: hoServerRead, WriteTimeout: hoServerWrite,
			Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
		var links []*faultnet.Link
		var pts []*PointClient
		for x := 0; x < fmP; x++ {
			link := fnet.LinkTo("relay")
			pc, err := DialPoint(PointConfig{
				Addr: "faultnet:relay", Point: x, Kind: kind,
				W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
				DeltaUploads:   delta,
				HeartbeatEvery: hoHB, WriteTimeout: hoClientWrite,
			})
			if err != nil {
				t.Fatal(err)
			}
			links = append(links, link)
			pts = append(pts, pc)
		}
		t.Cleanup(func() {
			for _, pc := range pts {
				pc.Close()
			}
		})

		for k := 1; k <= 3; k++ {
			hoEpoch(t, srv, pts, k)
		}

		links[1].HalfOpen()
		if !relay.WaitConnectedFor(1, hoWait) {
			t.Fatal("relay never evicted the half-open child")
		}
		if got := relay.Stats().Evictions; got < 1 {
			t.Fatalf("relay Evictions = %d, want >= 1", got)
		}

		for x := range pts {
			record(4, x, pts[x].Record)
		}
		if err := pts[0].EndEpoch(); err != nil {
			t.Fatalf("point 0 EndEpoch(4): %v", err)
		}
		if err := pts[1].EndEpoch(); err == nil {
			t.Fatal("point 1 EndEpoch(4) must fail on the evicted connection")
		}

		if err := pts[1].Redial(); err != nil {
			t.Fatalf("point 1 redial: %v", err)
		}
		if !srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after re-admission")
		}
		for x := range pts {
			if !pts[x].WaitPushEpoch(5, hoWait) {
				t.Fatalf("point %d never saw the round-4 push", x)
			}
		}

		for k := 5; k <= 8; k++ {
			hoEpoch(t, srv, pts, k)
		}
		for x := range pts {
			if cov := pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			checkOracleQueries(t, kind, healthyWindow(x, 9), "half-open relay path",
				pts[x].QuerySpread, pts[x].QuerySize)
		}
		rs := relay.Stats()
		if rs.HeartbeatsReceived == 0 {
			t.Fatal("relay accepted no heartbeats; the liveness layer never ran")
		}
		// The center saw only orderly relay traffic; the eviction stayed
		// local to the tier that detected it.
		if ss := srv.Stats(); ss.Evictions != 0 {
			t.Fatalf("center Evictions = %d, want 0 (child fault is the relay's)", ss.Evictions)
		}
	})
}

// Half-open scenario 3, upstream path (the PR's motivating bug): the
// relay's PARENT stops reading. The forward path encodes while holding
// the relay lock, so before write deadlines an epoch flush against a
// half-open parent wedged the entire relay — child ingest, merges,
// everything behind s.mu. Now the bounded write expires, fails the hop to
// the redial loop, and the children never notice: their EndEpoch calls
// succeed mid-fault, and the buffered combined upload replays after
// resync.
func TestHalfOpenRelayUpstreamBoundedWrite(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		fnet := faultnet.New(fmSeed)
		delta := kind == KindSize
		srv, err := ServeCenter(CenterConfig{
			Listener: fnet.Listen(), Kind: kind, WindowN: fmN,
			Widths:  map[int]int{trRelayID: fmW},
			Weights: map[int]int{trRelayID: fmP},
			M:       fmM, D: fmD, Seed: fmSeed,
			DeltaUploads: delta, Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		up := fnet.LinkTo(faultnet.DefaultNode)
		widths := map[int]int{}
		for x := 0; x < fmP; x++ {
			widths[x] = fmW
		}
		relay, err := ServeRelay(RelayConfig{
			Listener:     fnet.ListenAt("relay"),
			UpstreamAddr: "faultnet:center", UpstreamDial: up.Dial,
			Relay: trRelayID, Kind: kind, WindowN: fmN,
			Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
			RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond,
			WriteTimeout: hoServerWrite,
			Logf:         quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
		var pts []*PointClient
		for x := 0; x < fmP; x++ {
			link := fnet.LinkTo("relay")
			pc, err := DialPoint(PointConfig{
				Addr: "faultnet:relay", Point: x, Kind: kind,
				W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
				DeltaUploads: delta,
			})
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pc)
		}
		t.Cleanup(func() {
			for _, pc := range pts {
				pc.Close()
			}
		})

		for k := 1; k <= 3; k++ {
			hoEpoch(t, srv, pts, k)
		}
		dialsBefore := up.Dials()

		// The parent vanishes. Epoch 4 still runs end to end on the child
		// side: both EndEpoch calls must succeed while the relay's forward
		// write is stuck against the non-reading parent.
		up.HalfOpen()
		for x := range pts {
			record(4, x, pts[x].Record)
		}
		for x := range pts {
			if err := pts[x].EndEpoch(); err != nil {
				t.Fatalf("point %d EndEpoch(4) during upstream half-open: %v (wedged relay?)", x, err)
			}
		}
		waitFor(t, "upstream write timeout", func() bool {
			return relay.Stats().UpstreamWriteTimeouts >= 1
		})
		// Failing the hop hands the outage to the autonomous redial loop,
		// which re-establishes upstream through a fresh connection and
		// resyncs; the buffered round-4 forward replays and the round
		// completes at the center.
		waitFor(t, "upstream redial", func() bool { return up.Dials() > dialsBefore })
		if !srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after the upstream healed")
		}
		for x := range pts {
			if !pts[x].WaitPushEpoch(5, hoWait) {
				t.Fatalf("point %d never saw the round-4 push", x)
			}
		}

		for k := 5; k <= 8; k++ {
			hoEpoch(t, srv, pts, k)
		}
		for x := range pts {
			if cov := pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			checkOracleQueries(t, kind, healthyWindow(x, 9), "half-open upstream path",
				pts[x].QuerySpread, pts[x].QuerySize)
		}
		rs := relay.Stats()
		if rs.UpstreamWriteTimeouts < 1 {
			t.Fatalf("relay UpstreamWriteTimeouts = %d, want >= 1", rs.UpstreamWriteTimeouts)
		}
		// The outage lasted well under the window, so the bounded hop must
		// not have cost an epoch.
		if rs.UploadsDropped != 0 {
			t.Fatalf("relay UploadsDropped = %d, want 0 (outage shorter than window)", rs.UploadsDropped)
		}
	})
}

// Half-open scenario 4, shard path: one sub-connection of a sharded point
// goes half-open. The owning shard evicts it while the other shard's
// rounds keep flowing untouched, and Redial reconnects only the dead sub.
func TestHalfOpenShardEvictedAndReadmitted(t *testing.T) {
	forBothKinds(t, func(t *testing.T, kind Kind) {
		fnet := faultnet.New(fmSeed)
		shards := make([]*CenterServer, sfShards)
		widths := map[int]int{}
		for x := 0; x < fmP; x++ {
			widths[x] = fmW
		}
		for i := 0; i < sfShards; i++ {
			srv, err := ServeCenter(CenterConfig{
				Listener: fnet.ListenAt(shardNode(i)), Kind: kind, WindowN: fmN,
				Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
				Shard: i, ReadTimeout: hoServerRead, WriteTimeout: hoServerWrite,
				Logf: quietLogf,
			})
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = srv
		}
		t.Cleanup(func() {
			for _, srv := range shards {
				srv.Close()
			}
		})
		addrs := make([]string, sfShards)
		for i := range addrs {
			addrs[i] = "faultnet:" + shardNode(i)
		}
		var allLinks [][]*faultnet.Link
		var scs []*ShardedPointClient
		for x := 0; x < fmP; x++ {
			links := make([]*faultnet.Link, sfShards)
			for i := range links {
				links[i] = fnet.LinkTo(shardNode(i))
			}
			allLinks = append(allLinks, links)
			sc, err := DialShardedPoint(ShardedPointConfig{
				Addrs: addrs, Point: x, Kind: kind,
				W: fmW, M: fmM, D: fmD, Seed: fmSeed,
				Dial: func(addr string) (net.Conn, error) {
					for i := range addrs {
						if addr == addrs[i] {
							return links[i].Dial(addr)
						}
					}
					return nil, fmt.Errorf("unknown shard addr %q", addr)
				},
				HeartbeatEvery: hoHB, WriteTimeout: hoClientWrite,
			})
			if err != nil {
				t.Fatal(err)
			}
			scs = append(scs, sc)
		}
		t.Cleanup(func() {
			for _, sc := range scs {
				sc.Close()
			}
		})

		shardEpoch := func(k int) {
			t.Helper()
			for x := range scs {
				record(k, x, scs[x].Record)
			}
			for x := range scs {
				if err := scs[x].EndEpoch(); err != nil {
					t.Fatalf("point %d EndEpoch(%d): %v", x, k, err)
				}
			}
			for i, srv := range shards {
				if !srv.WaitRounds(int64(k)) {
					t.Fatalf("epoch %d: shard %d closed before round", k, i)
				}
			}
			for x := range scs {
				for i := 0; i < sfShards; i++ {
					if !scs[x].Sub(i).WaitPushEpoch(int64(k)+1, hoWait) {
						t.Fatalf("epoch %d: point %d shard %d never saw the push", k, x, i)
					}
				}
			}
		}
		unionCoverage := func(x int) core.Coverage {
			t.Helper()
			var cov core.Coverage
			var err error
			if kind == KindSpread {
				_, cov, err = scs[x].QuerySpreadWithCoverage(1)
			} else {
				_, cov, err = scs[x].QuerySizeWithCoverage(1)
			}
			if err != nil {
				t.Fatal(err)
			}
			return cov
		}

		for k := 1; k <= 3; k++ {
			shardEpoch(k)
		}

		// Point 1's connection to shard 0 goes half-open; its shard-1 sub
		// keeps heartbeating, so only shard 0 evicts.
		allLinks[1][0].HalfOpen()
		if !shards[0].WaitConnectedFor(1, hoWait) {
			t.Fatal("shard 0 never evicted the half-open sub-point")
		}
		if got := shards[0].Stats().Evictions; got < 1 {
			t.Fatalf("shard 0 Evictions = %d, want >= 1", got)
		}

		// Epoch 4: point 0 is clean; point 1's EndEpoch must blame exactly
		// the evicted shard while its healthy sub uploads normally.
		for x := range scs {
			record(4, x, scs[x].Record)
		}
		if err := scs[0].EndEpoch(); err != nil {
			t.Fatalf("point 0 EndEpoch(4): %v", err)
		}
		err := scs[1].EndEpoch()
		if err == nil {
			t.Fatal("point 1 EndEpoch(4) must report the evicted shard")
		}
		if !strings.Contains(err.Error(), "shard 0") {
			t.Fatalf("point 1 EndEpoch error %q does not name shard 0", err)
		}
		if strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("point 1 EndEpoch error %q blames healthy shard 1", err)
		}
		// Shard 1's round 4 completes during the fault.
		if !shards[1].WaitRounds(4) {
			t.Fatal("shard 1 round 4 must complete during the fault")
		}

		// Redial touches only the dead sub; the resync replays epoch 4 and
		// shard 0's stalled round completes.
		if err := scs[1].Redial(); err != nil {
			t.Fatalf("point 1 redial: %v", err)
		}
		if !shards[0].WaitRounds(4) {
			t.Fatal("shard 0 round 4 never completed after re-admission")
		}
		for x := range scs {
			for i := 0; i < sfShards; i++ {
				if !scs[x].Sub(i).WaitPushEpoch(5, hoWait) {
					t.Fatalf("point %d shard %d never saw the round-4 push", x, i)
				}
			}
		}

		for k := 5; k <= 8; k++ {
			shardEpoch(k)
		}
		for x := range scs {
			if cov := unionCoverage(x); !cov.Full() {
				t.Fatalf("point %d union coverage %+v, want full", x, cov)
			}
			checkOracleQueries(t, kind, healthyWindow(x, 9), "half-open shard path",
				scs[x].QuerySpread, scs[x].QuerySize)
		}
		if got := shards[0].Stats().HeartbeatsReceived; got == 0 {
			t.Fatal("shard 0 accepted no heartbeats; the liveness layer never ran")
		}
		if got := shards[1].Stats().Evictions; got != 0 {
			t.Fatalf("shard 1 Evictions = %d, want 0 (its children stayed live)", got)
		}
	})
}

// wedgeCluster is the fan-out harness: p spread points on faultnet links,
// straight under a center or under one relay, with write deadline wto on
// the tier that fans pushes out to them.
type wedgeCluster struct {
	srv   *CenterServer
	relay *RelayServer // nil when the points hang off the center
	links []*faultnet.Link
	pts   []*PointClient
}

func newWedgeCluster(t *testing.T, seed int64, p int, wto time.Duration, viaRelay bool) *wedgeCluster {
	t.Helper()
	fnet := faultnet.New(seed)
	widths := map[int]int{}
	for x := 0; x < p; x++ {
		widths[x] = fmW
	}
	ccfg := CenterConfig{
		Listener: fnet.Listen(), Kind: KindSpread, WindowN: fmN,
		Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
		WriteTimeout: wto, Logf: quietLogf,
	}
	if viaRelay {
		ccfg.Widths, ccfg.Weights, ccfg.WriteTimeout = map[int]int{trRelayID: fmW}, map[int]int{trRelayID: p}, 0
	}
	srv, err := ServeCenter(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &wedgeCluster{srv: srv}
	node := faultnet.DefaultNode
	if viaRelay {
		c.relay, err = ServeRelay(RelayConfig{
			Listener: fnet.ListenAt("relay"), UpstreamAddr: "faultnet:center",
			UpstreamDial: fnet.DialerTo(faultnet.DefaultNode),
			Relay:        trRelayID, Kind: KindSpread, WindowN: fmN,
			Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
			WriteTimeout: wto, Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		node = "relay"
	}
	for x := 0; x < p; x++ {
		link := fnet.LinkTo(node)
		pc, err := DialPoint(PointConfig{
			Addr: "faultnet", Point: x, Kind: KindSpread,
			W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.links = append(c.links, link)
		c.pts = append(c.pts, pc)
	}
	return c
}

// uploads waits until the tier the points upload to has taken n uploads.
func (c *wedgeCluster) uploads(n int64) bool {
	if c.relay != nil {
		return c.relay.WaitUploads(n)
	}
	return c.srv.WaitUploads(n)
}

// close shuts the servers first — which drops a wedged write without
// waiting out its deadline — then the points.
func (c *wedgeCluster) close() {
	if c.relay != nil {
		c.relay.Close()
	}
	c.srv.Close()
	for _, pc := range c.pts {
		pc.Close()
	}
}

// A child that stops reading must delay only its own push. With pushes
// sent one child at a time, every child after the wedged one in the
// round's order waited out the write deadline before the eviction freed
// the round; the fan-out sends to each child concurrently. Several trials
// put the wedged child at different places in that order.
func TestWedgedChildDoesNotStallRound(t *testing.T) {
	noLeak(t)
	const (
		p       = 8
		wto     = 5 * time.Second
		patient = wto / 5
	)
	for trial := int64(0); trial < 3; trial++ {
		c := newWedgeCluster(t, fmSeed+trial, p, wto, false)
		pts := c.pts
		hoEpoch(t, c.srv, pts, 1)

		// Child 0 uploads epoch 2, then stops draining its connection.
		for x := range pts {
			record(2, x, pts[x].Record)
		}
		if err := pts[0].EndEpoch(); err != nil {
			t.Fatal(err)
		}
		if !c.uploads(p + 1) {
			t.Fatal("center closed before child 0's epoch-2 upload")
		}
		c.links[0].HalfOpen()
		for x := 1; x < p; x++ {
			if err := pts[x].EndEpoch(); err != nil {
				t.Fatalf("point %d EndEpoch(2): %v", x, err)
			}
		}
		for x := 1; x < p; x++ {
			if !pts[x].WaitPushEpoch(3, patient) {
				t.Fatalf("trial %d: point %d waited more than %v for round 2 behind a wedged child", trial, x, patient)
			}
		}
		// Closing the center drops the wedged write without waiting out
		// its deadline.
		c.close()
	}
}

// A child that registers while a round's fan-out is still running must get
// that round. Child 0 is half-open, so the fan-out of round 2 (ForEpoch 3)
// blocks on it for the write deadline; point 1's link is cut, so its
// fan-out push fails, and it redials in the middle of the blocked fan-out.
// Its resync must re-push round 2 — not round 1, which it would drop as
// late, missing round 2's aggregate and running a window short. Both users
// of the child-facing half are covered: the center and a relay.
func TestRedialDuringFanOutGetsCurrentRound(t *testing.T) {
	noLeak(t)
	const (
		p       = 4
		wto     = 5 * time.Second
		patient = wto / 5
	)
	for _, via := range []string{"center", "relay"} {
		t.Run(via, func(t *testing.T) {
			c := newWedgeCluster(t, fmSeed, p, wto, via == "relay")
			defer c.close()
			pts := c.pts
			hoEpoch(t, c.srv, pts, 1)
			for x := range pts {
				record(2, x, pts[x].Record)
			}

			// Child 0 uploads epoch 2 and goes half-open: the round's
			// fan-out will block on it.
			if err := pts[0].EndEpoch(); err != nil {
				t.Fatal(err)
			}
			if !c.uploads(p + 1) {
				t.Fatal("closed before child 0's epoch-2 upload")
			}
			c.links[0].HalfOpen()
			// Point 1 uploads epoch 2, then loses its link: the round's push
			// to it fails.
			if err := pts[1].EndEpoch(); err != nil {
				t.Fatal(err)
			}
			if !c.uploads(p + 2) {
				t.Fatal("closed before point 1's epoch-2 upload")
			}
			c.links[1].Cut()
			for x := 2; x < p; x++ {
				if err := pts[x].EndEpoch(); err != nil {
					t.Fatalf("point %d EndEpoch(2): %v", x, err)
				}
			}
			// The round is out — the healthy children have it — while its
			// fan-out is stuck on child 0 for the write deadline.
			for x := 2; x < p; x++ {
				if !pts[x].WaitPushEpoch(3, patient) {
					t.Fatalf("point %d never saw round 2", x)
				}
			}

			if err := pts[1].Redial(); err != nil {
				t.Fatalf("point 1 redial: %v", err)
			}
			if !pts[1].WaitPushEpoch(3, patient) {
				t.Fatal("point 1 rejoined during round 2's fan-out but never got round 2")
			}
			if late := pts[1].Stats().PushesLate; late != 0 {
				t.Fatalf("point 1 PushesLate = %d, want 0 (resync re-pushed the previous round)", late)
			}
		})
	}
}
