package transport

import (
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/faultnet"
	"repro/internal/rskt"
	"repro/internal/xhash"
)

// The fault matrix: every protocol failure scenario × both designs, run
// over the faultnet fabric so each fault fires at an exact protocol step.
// No test in this file sleeps; synchronization is WaitRounds/WaitUploads
// on the center and WaitPushes on the points, all condition-variable
// based, so the tests are deterministic under -race and -count=100.

const (
	fmN    = 5  // window n
	fmP    = 2  // points
	fmW    = 32 // sketch width
	fmM    = 16 // HLL registers (spread)
	fmD    = 4  // CountMin depth (size)
	fmSeed = 21 // cluster hash seed
)

// fcluster is one fault-matrix deployment: a center on a faultnet
// listener and fmP points dialing through per-point fault links.
type fcluster struct {
	t     *testing.T
	kind  Kind
	fnet  *faultnet.Network
	srv   *CenterServer
	links []*faultnet.Link
	pts   []*PointClient

	// Durability knobs, set by the crash matrix (crash_test.go); zero
	// values leave checkpointing off, as the plain fault matrix runs.
	ckptDir   string   // center checkpoint directory
	ckptEvery int      // center checkpoint cadence
	ptDirs    []string // per-point checkpoint directories
}

func newFCluster(t *testing.T, kind Kind) *fcluster {
	t.Helper()
	c := &fcluster{t: t, kind: kind, fnet: faultnet.New(fmSeed)}
	widths := map[int]int{}
	for x := 0; x < fmP; x++ {
		widths[x] = fmW
	}
	srv, err := ServeCenter(CenterConfig{
		Listener: c.fnet.Listen(), Kind: kind, WindowN: fmN,
		Widths: widths, M: fmM, D: fmD, Seed: fmSeed, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.srv = srv
	t.Cleanup(func() { srv.Close() })
	for x := 0; x < fmP; x++ {
		link := c.fnet.Link()
		pc, err := DialPoint(c.pointConfig(x, link))
		if err != nil {
			t.Fatal(err)
		}
		c.links = append(c.links, link)
		c.pts = append(c.pts, pc)
	}
	t.Cleanup(func() {
		for _, pc := range c.pts {
			pc.Close()
		}
	})
	return c
}

func (c *fcluster) pointConfig(x int, link *faultnet.Link) PointConfig {
	cfg := PointConfig{
		Addr: "faultnet", Point: x, Kind: c.kind,
		W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
	}
	if x < len(c.ptDirs) {
		cfg.CheckpointDir = c.ptDirs[x]
	}
	return cfg
}

// record feeds epoch k's deterministic packets for point x into fn. The
// same generator drives both the live points and the oracle sketches.
func record(k int, x int, fn func(f, e uint64)) {
	for f := uint64(0); f < 8; f++ {
		for i := 0; i < 12; i++ {
			e := xhash.Hash64(uint64(k*1000+x*100+i), f) % 48
			fn(f, f<<32|e)
		}
	}
}

func (c *fcluster) recordAll(k int) {
	for x := range c.pts {
		record(k, x, c.pts[x].Record)
	}
}

func (c *fcluster) endEpoch(x, k int) {
	c.t.Helper()
	if err := c.pts[x].EndEpoch(); err != nil {
		c.t.Fatalf("point %d EndEpoch(%d): %v", x, k, err)
	}
}

// healthyEpoch runs one fault-free epoch k: records, ends the epoch on
// every point, then waits for the round and its pushes deterministically.
func (c *fcluster) healthyEpoch(k int, pushWant []int64) {
	c.t.Helper()
	c.recordAll(k)
	for x := range c.pts {
		c.endEpoch(x, k)
	}
	if !c.srv.WaitRounds(int64(k)) {
		c.t.Fatalf("epoch %d: center closed before round", k)
	}
	for x := range c.pts {
		pushWant[x]++
		if !c.pts[x].WaitPushes(pushWant[x]) {
			c.t.Fatalf("epoch %d: point %d closed before push", k, x)
		}
	}
}

// pe is one surviving point-epoch for the oracle.
type pe struct {
	y int
	k int
}

// checkOracle asserts point x's estimates equal an oracle built from
// exactly the surviving point-epochs: the aggregate the center joined plus
// the point's own last-completed epoch.
func (c *fcluster) checkOracle(x int, survived []pe, label string) {
	c.t.Helper()
	checkOracleQueries(c.t, c.kind, survived, label,
		c.pts[x].QuerySpread, c.pts[x].QuerySize)
}

// checkOracleQueries is the oracle comparison shared by the flat, tree
// and sharded fault matrices: any client exposing the two query methods
// must answer exactly as an ideal single sketch fed the surviving
// point-epochs.
func checkOracleQueries(t *testing.T, kind Kind, survived []pe, label string,
	querySpread func(uint64) (float64, error), querySize func(uint64) (int64, error)) {
	t.Helper()
	if kind == KindSpread {
		ideal := rskt.New(rskt.Params{W: fmW, M: fmM, Seed: fmSeed})
		for _, s := range survived {
			record(s.k, s.y, ideal.Record)
		}
		for f := uint64(0); f < 8; f++ {
			got, err := querySpread(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := ideal.Estimate(f); got != want {
				t.Fatalf("%s: flow %d: live %.4f != oracle %.4f", label, f, got, want)
			}
		}
		return
	}
	ideal := countmin.New(countmin.Params{D: fmD, W: fmW, Seed: fmSeed})
	for _, s := range survived {
		record(s.k, s.y, func(f, e uint64) { ideal.Record(f, 0) })
	}
	for f := uint64(0); f < 8; f++ {
		got, err := querySize(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := ideal.Estimate(f); got != want {
			t.Fatalf("%s: flow %d: live %d != oracle %d", label, f, got, want)
		}
	}
}

// healthyWindow lists the point-epochs a fully healthy query at epoch K
// from point x covers: every point's epochs [K-n+1, K-2] plus x's K-1.
func healthyWindow(x, K int) []pe {
	var w []pe
	for k := K - fmN + 1; k <= K-2; k++ {
		if k < 1 {
			continue
		}
		for y := 0; y < fmP; y++ {
			w = append(w, pe{y, k})
		}
	}
	w = append(w, pe{x, K - 1})
	return w
}

func forBothKinds(t *testing.T, fn func(t *testing.T, kind Kind)) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		t.Run(string(kind), func(t *testing.T) { fn(t, kind) })
	}
}

// Scenario 1: a point's upload is dropped by a connection cut at the
// epoch boundary; the retransmit buffer replays it after Redial and no
// data is lost.
func TestFaultDropUpload(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newFCluster(t, kind)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		c.recordAll(4)
		c.links[0].Cut()
		if err := c.pts[0].EndEpoch(); err == nil {
			t.Fatal("EndEpoch over a cut connection must fail")
		}
		c.endEpoch(1, 4)
		if err := c.pts[0].Redial(); err != nil {
			t.Fatalf("redial: %v", err)
		}
		if !c.srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after retransmit")
		}
		// Point 0 sees the reconnect re-push of round 4 (late: it already
		// merged that aggregate) plus the round-4 push; point 1 only the
		// latter.
		pushWant[0] += 2
		pushWant[1]++
		c.pts[0].WaitPushes(pushWant[0])
		c.pts[1].WaitPushes(pushWant[1])

		c.recordAll(5)
		for x := range c.pts {
			c.endEpoch(x, 5)
		}
		c.srv.WaitRounds(5)
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}

		st0 := c.pts[0].Stats()
		if st0.UploadsRetried != 1 {
			t.Fatalf("UploadsRetried = %d, want 1", st0.UploadsRetried)
		}
		if st0.UploadsDropped != 0 {
			t.Fatalf("UploadsDropped = %d, want 0", st0.UploadsDropped)
		}
		ss := c.srv.Stats()
		if ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}
		if ss.Repushes != 1 {
			t.Fatalf("Repushes = %d, want 1", ss.Repushes)
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 6), "post-retransmit")
		}
	})
}

// Scenario 2: the center's push to one point is dropped on the floor; the
// reconnect re-push delivers the same round and the point recovers within
// the same epoch.
func TestFaultDropPush(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newFCluster(t, kind)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		c.recordAll(4)
		c.links[0].HoldPushes()
		for x := range c.pts {
			c.endEpoch(x, 4)
		}
		if !c.srv.WaitRounds(4) {
			t.Fatal("round 4 never completed")
		}
		pushWant[1]++
		c.pts[1].WaitPushes(pushWant[1])
		// The push for epoch 5 is sitting in the held fabric buffer for
		// point 0; cutting the link discards it.
		c.links[0].Cut()
		if err := c.pts[0].Redial(); err != nil {
			t.Fatalf("redial: %v", err)
		}
		// The reconnect re-push replays round 4 (ForEpoch 5); the point is
		// still in epoch 5, so this time it merges.
		pushWant[0]++
		if !c.pts[0].WaitPushes(pushWant[0]) {
			t.Fatal("point 0 never saw the re-push")
		}
		if got := c.pts[0].Stats().PushesLate; got != 0 {
			t.Fatalf("point 0 PushesLate = %d, want 0", got)
		}
		if ss := c.srv.Stats(); ss.Repushes != 1 {
			t.Fatalf("Repushes = %d, want 1", ss.Repushes)
		}

		c.recordAll(5)
		for x := range c.pts {
			c.endEpoch(x, 5)
		}
		c.srv.WaitRounds(5)
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 6), "post-repush")
		}
	})
}

// Scenario 3: the center is unreachable for two whole epochs. Queries
// degrade to explicit partial coverage instead of silently serving a
// stale window, and coverage returns to full within one epoch of
// reconnecting — the paper's real-time guarantee restored.
func TestFaultCenterOutage(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newFCluster(t, kind)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		// Outage spans epochs 4 and 5: every upload fails and is buffered.
		c.fnet.Partition()
		c.recordAll(4)
		for x := range c.pts {
			if err := c.pts[x].EndEpoch(); err == nil {
				t.Fatalf("point %d EndEpoch(4) must fail during outage", x)
			}
		}
		// Epoch 5's window was staged before the outage (the round-3 push
		// arrived in epoch 4): still full coverage.
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d epoch-5 coverage %+v, want full", x, cov)
			}
		}
		c.recordAll(5)
		for x := range c.pts {
			if err := c.pts[x].EndEpoch(); err == nil {
				t.Fatalf("point %d EndEpoch(5) must fail during outage", x)
			}
		}
		// Epoch 6: no aggregate reached the points during epoch 5, so every
		// query now reports degraded coverage — and an estimate built from
		// exactly the local epoch, not a silently stale window.
		for x := range c.pts {
			var cov core.Coverage
			var err error
			if kind == KindSpread {
				_, cov, err = c.pts[x].QuerySpreadWithCoverage(1)
			} else {
				_, cov, err = c.pts[x].QuerySizeWithCoverage(1)
			}
			if err != nil {
				t.Fatal(err)
			}
			if cov.Fraction() >= 1 {
				t.Fatalf("point %d outage coverage %+v, want < 1", x, cov)
			}
			if cov.EpochsMerged != 0 {
				t.Fatalf("point %d outage merged %d, want 0", x, cov.EpochsMerged)
			}
			c.checkOracle(x, []pe{{x, 5}}, "during outage")
		}

		// Heal and reconnect: buffered uploads replay, rounds 4 and 5
		// complete, and the round-5 push lands in the still-open epoch 6.
		c.fnet.Heal()
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		if !c.srv.WaitRounds(5) {
			t.Fatal("rounds 4..5 never completed after heal")
		}
		// Each point: re-push of round 3 (late) + round-4 push (late) +
		// round-5 push (merged in epoch 6).
		for x := range c.pts {
			pushWant[x] += 3
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-heal pushes", x)
			}
			if st := c.pts[x].Stats(); st.UploadsRetried != 2 {
				t.Fatalf("point %d UploadsRetried = %d, want 2", x, st.UploadsRetried)
			}
		}
		if ss := c.srv.Stats(); ss.UploadsGap != 0 || ss.UploadsDuplicate != 0 {
			t.Fatalf("center gap/dup = %d/%d, want 0/0 (retransmits fill the window)", ss.UploadsGap, ss.UploadsDuplicate)
		}

		// One epoch boundary after reconnect, coverage is whole again and
		// the estimates match a never-faulted cluster.
		c.recordAll(6)
		for x := range c.pts {
			c.endEpoch(x, 6)
		}
		c.srv.WaitRounds(6)
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d post-recovery coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 7), "post-recovery")
		}
	})
}

// Scenario 4: a point restarts mid-window with no persisted state. The
// Welcome resynchronizes its epoch clock, the backfill exchange restores
// the aggregate it lost (IntoCurrent push, merged straight into C) plus
// the current round's staged push, and (cumulative size) a rebase upload
// reseeds the center's recovery chain — no gap, full coverage within the
// restart epoch.
func TestFaultPointRestart(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newFCluster(t, kind)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			c.healthyEpoch(k, pushWant)
		}

		// Restart point 0: all sketch state is lost, a fresh client dials.
		c.pts[0].Close()
		pc, err := DialPoint(c.pointConfig(0, c.links[0]))
		if err != nil {
			t.Fatalf("restart dial: %v", err)
		}
		c.pts[0] = pc
		if got := pc.Epoch(); got != 5 {
			t.Fatalf("restarted point resumed at epoch %d, want 5", got)
		}
		// The fresh Hello carries StateEpoch 1 against cluster epoch 5, so
		// the center runs the backfill exchange: the round-4 aggregate
		// (epochs 1..3, both points) into C, then the staged round-5 push.
		pushWant[0] = 2
		if !pc.WaitPushes(2) {
			t.Fatal("restarted point never saw the backfill + staged push")
		}
		st := pc.Stats()
		if st.BackfillsApplied != 1 || st.PushesApplied != 1 {
			t.Fatalf("restarted point BackfillsApplied/PushesApplied = %d/%d, want 1/1",
				st.BackfillsApplied, st.PushesApplied)
		}
		// The backfill restores the lost window immediately: coverage is
		// whole and queries match an oracle over the backfilled span before
		// the point records anything new.
		if cov := pc.Coverage(); !cov.Full() {
			t.Fatalf("post-backfill coverage %+v, want full", cov)
		}
		backfilled := []pe{}
		for k := 1; k <= 3; k++ {
			for y := 0; y < fmP; y++ {
				backfilled = append(backfilled, pe{y, k})
			}
		}
		c.checkOracle(0, backfilled, "after backfill")

		c.recordAll(5)
		for x := range c.pts {
			c.endEpoch(x, 5)
		}
		c.srv.WaitRounds(5)
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		ss := c.srv.Stats()
		if ss.UploadsGap != 0 {
			t.Fatalf("UploadsGap = %d, want 0 (rebase must reseed the chain)", ss.UploadsGap)
		}
		if ss.Backfills != 1 || ss.Repushes != 0 {
			t.Fatalf("Backfills/Repushes = %d/%d, want 1/0", ss.Backfills, ss.Repushes)
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 6), "post-restart")
		}
	})
}

// Scenario 5: duplicate uploads — a retransmit the center had already
// ingested — are dropped idempotently, first copy wins, and the round is
// not double-counted. Driven over a raw protocol connection so the
// duplicate's payload can even disagree with the original.
func TestFaultDuplicateUpload(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c, raw := newRawCluster(t, kind) // point 1 live, point 0 raw

		// Epoch 1: both points upload; the center completes round 1.
		record(1, 1, c.pts[1].Record)
		c.endEpoch(1, 1)
		raw.upload(1, false)
		if !c.srv.WaitRounds(1) {
			t.Fatal("round 1 never completed")
		}
		if !c.pts[1].WaitPushes(1) {
			t.Fatal("point 1 missed round-1 push")
		}

		// The duplicate: same epoch, deliberately different payload. The
		// center must drop it (first copy wins) without advancing the round.
		raw.upload(1, true)
		if !c.srv.WaitUploads(3) { // 2 ingested + 1 duplicate
			t.Fatal("duplicate never reached the center")
		}
		ss := c.srv.Stats()
		if ss.UploadsDuplicate != 1 {
			t.Fatalf("UploadsDuplicate = %d, want 1", ss.UploadsDuplicate)
		}
		if ss.RoundsPushed != 1 {
			t.Fatalf("RoundsPushed = %d, want 1 (duplicate must not re-fire the round)", ss.RoundsPushed)
		}

		// Epoch 2 completes normally; point 1's window must reflect the
		// FIRST epoch-1 payload from point 0, not the duplicate's.
		record(2, 1, c.pts[1].Record)
		c.endEpoch(1, 2)
		raw.upload(2, false)
		if !c.srv.WaitRounds(2) {
			t.Fatal("round 2 never completed")
		}
		if !c.pts[1].WaitPushes(2) {
			t.Fatal("point 1 missed round-2 push")
		}
		record(3, 1, c.pts[1].Record)
		c.endEpoch(1, 3)

		// Point 1 queries at epoch 4: the span [1,2] of both points plus
		// its own epoch 3 — with point 0's epochs from the original
		// payloads only.
		c.checkOracle(1, []pe{{0, 1}, {1, 1}, {0, 2}, {1, 2}, {1, 3}}, "post-duplicate")
	})
}

// rawPoint speaks the wire protocol by hand as point 0, so a test can
// send byte sequences no healthy client would (duplicate epochs with
// disagreeing payloads).
type rawPoint struct {
	t    *testing.T
	kind Kind
	conn net.Conn
	// cum is the raw point's running cumulative C (size design): the
	// uploaded sketch must be cumulative across epochs for the center's
	// recovery subtraction to be meaningful.
	cum *countmin.Sketch
}

// upload sends point 0's epoch payload. With dup set, the payload is a
// fork of the real lineage with extra records — different bytes for the
// same epoch, leaving the true cumulative state untouched.
func (r *rawPoint) upload(epoch int, dup bool) {
	r.t.Helper()
	var payload []byte
	var err error
	if r.kind == KindSpread {
		sk := rskt.New(rskt.Params{W: fmW, M: fmM, Seed: fmSeed})
		record(epoch, 0, sk.Record)
		if dup {
			record(9000+epoch, 0, sk.Record)
		}
		payload, err = sk.MarshalBinaryCompact()
	} else if dup {
		fork := r.cum.Clone()
		record(9000+epoch, 0, func(f, e uint64) { fork.Record(f, 0) })
		payload, err = fork.MarshalBinaryCompact()
	} else {
		record(epoch, 0, func(f, e uint64) { r.cum.Record(f, 0) })
		payload, err = r.cum.MarshalBinaryCompact()
	}
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := r.conn.Write(frameOf(Upload{Point: 0, Epoch: int64(epoch), Sketch: payload})); err != nil {
		r.t.Fatalf("raw upload epoch %d: %v", epoch, err)
	}
}

// newRawCluster builds a two-point deployment where point 1 is a live
// client and point 0 is a raw frame connection under test control.
func newRawCluster(t *testing.T, kind Kind) (*fcluster, *rawPoint) {
	t.Helper()
	c := &fcluster{t: t, kind: kind, fnet: faultnet.New(fmSeed)}
	srv, err := ServeCenter(CenterConfig{
		Listener: c.fnet.Listen(), Kind: kind, WindowN: fmN,
		Widths: map[int]int{0: fmW, 1: fmW}, M: fmM, D: fmD, Seed: fmSeed, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.srv = srv
	t.Cleanup(func() { srv.Close() })

	link := c.fnet.Link()
	pcLive, err := DialPoint(PointConfig{
		Addr: "faultnet", Point: 1, Kind: kind,
		W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.links = []*faultnet.Link{nil, link}
	c.pts = []*PointClient{nil, pcLive}
	t.Cleanup(func() { pcLive.Close() })

	conn, err := c.fnet.Dial("faultnet")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(frameOf(Hello{Point: 0, Kind: kind, W: fmW})); err != nil {
		t.Fatal(err)
	}
	welcome, err := readMessage(conn, frameWelcome, parseWelcome)
	if err != nil {
		t.Fatalf("raw welcome: %v", err)
	}
	if welcome.WindowN != fmN || welcome.Points != 2 {
		t.Fatalf("welcome %+v", welcome)
	}
	// Drain the raw conn's pushes in the background so the center's writes
	// never depend on this side reading.
	go func() {
		for {
			if _, _, err := readFrame(conn, framePush); err != nil {
				return
			}
		}
	}()
	raw := &rawPoint{t: t, kind: kind, conn: conn,
		cum: countmin.New(countmin.Params{D: fmD, W: fmW, Seed: fmSeed})}
	return c, raw
}

// Scenario 6: an outage longer than one window. The retransmit buffer
// caps at n epochs (the window cannot use older uploads anyway), drops
// are counted, the cumulative chain reseeds via rebase, and coverage
// honestly reports the hole until the window slides past it.
func TestFaultRetransmitCapLongOutage(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newFCluster(t, kind)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		// Outage spans epochs 4..10: seven epochs against a window of five.
		c.fnet.Partition()
		for k := 4; k <= 10; k++ {
			c.recordAll(k)
			for x := range c.pts {
				if err := c.pts[x].EndEpoch(); err == nil {
					t.Fatalf("point %d EndEpoch(%d) must fail during outage", x, k)
				}
			}
		}
		for x := range c.pts {
			if st := c.pts[x].Stats(); st.UploadsDropped != 2 {
				t.Fatalf("point %d UploadsDropped = %d, want 2 (buffer capped at n=%d)", x, st.UploadsDropped, fmN)
			}
		}

		c.fnet.Heal()
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		// Epochs 6..10 replay (5 retained uploads per point); epochs 4 and 5
		// never complete a round. Rounds: 3 healthy + 5 replayed.
		if !c.srv.WaitRounds(8) {
			t.Fatal("replayed rounds never completed")
		}
		for x := range c.pts {
			// Re-push of round 3 (stale) + pushes for epochs 7..10 (stale)
			// + push for epoch 11 (merged).
			pushWant[x] += 6
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-heal pushes", x)
			}
			if st := c.pts[x].Stats(); st.UploadsRetried != 5 {
				t.Fatalf("point %d UploadsRetried = %d, want 5", x, st.UploadsRetried)
			}
		}
		ss := c.srv.Stats()
		if kind == KindSpread {
			// Per-epoch uploads fill window holes directly: no gap handling.
			if ss.UploadsGap != 0 {
				t.Fatalf("spread UploadsGap = %d, want 0", ss.UploadsGap)
			}
		} else if ss.UploadsGap == 0 {
			t.Fatal("size UploadsGap = 0, want > 0 (chain broke across the hole)")
		}

		// Epoch 11 closes; at epoch 12 the designs differ honestly: the
		// spread window already re-filled from the replayed uploads, while
		// the cumulative chain lost epochs 4..9 and says so.
		c.recordAll(11)
		for x := range c.pts {
			c.endEpoch(x, 11)
		}
		c.srv.WaitRounds(9)
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		for x := range c.pts {
			cov := c.pts[x].Coverage()
			if kind == KindSpread {
				if !cov.Full() {
					t.Fatalf("spread point %d coverage %+v, want full", x, cov)
				}
			} else if cov.Fraction() >= 1 || cov.EpochsMerged != 2 {
				t.Fatalf("size point %d coverage %+v, want partial (2 merged)", x, cov)
			}
		}

		// Two more healthy epochs slide the window past the hole; both
		// designs converge back to full coverage and oracle equality.
		for k := 12; k <= 13; k++ {
			c.recordAll(k)
			for x := range c.pts {
				c.endEpoch(x, k)
			}
			c.srv.WaitRounds(int64(k - 3))
			for x := range c.pts {
				pushWant[x]++
				c.pts[x].WaitPushes(pushWant[x])
			}
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d post-slide coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 14), "post-slide")
		}
	})
}
