package transport

import (
	"testing"
	"time"

	"repro/internal/faultnet"
)

// The tree fault matrix: the flat matrix's scenarios re-aimed at an
// aggregation relay between the points and the center. Every scenario
// ends in the same two assertions the flat matrix makes — exact coverage
// counts and estimates equal to an ideal single-sketch oracle fed the
// surviving point-epochs — which is the live-transport half of the
// flat-vs-tree equivalence the cluster simulator proves in bulk
// (internal/cluster/treesim_test.go). Synchronization is condition-
// variable based (WaitRounds/WaitUploads/WaitPushes at each tier), never
// timers, so the matrix is deterministic under -race.

// trRelayID is the relay's id in the center's topology; it shares no id
// with the leaf points beneath it.
const trRelayID = 2

// tcluster is one tree deployment: center ← relay ← fmP points, each hop
// on its own faultnet node so faults can target one tier.
type tcluster struct {
	t        *testing.T
	kind     Kind
	fnet     *faultnet.Network
	srv      *CenterServer
	relay    *RelayServer
	links    []*faultnet.Link
	pts      []*PointClient
	relayDir string // relay checkpoint directory ("" = durability off)
}

// delta reports whether the deployment runs delta uploads: size trees
// must (cumulative sketches cannot be pre-merged at the relay), spread
// always does.
func (c *tcluster) delta() bool { return c.kind == KindSize }

func newTCluster(t *testing.T, kind Kind, relayDir string) *tcluster {
	t.Helper()
	c := &tcluster{t: t, kind: kind, fnet: faultnet.New(fmSeed), relayDir: relayDir}
	srv, err := ServeCenter(CenterConfig{
		Listener: c.fnet.Listen(), Kind: kind, WindowN: fmN,
		Widths:  map[int]int{trRelayID: fmW},
		Weights: map[int]int{trRelayID: fmP},
		M:       fmM, D: fmD, Seed: fmSeed,
		DeltaUploads: c.delta(), Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.srv = srv
	t.Cleanup(func() { srv.Close() })
	c.startRelay()
	t.Cleanup(func() { c.relay.Close() })
	for x := 0; x < fmP; x++ {
		link := c.fnet.LinkTo("relay")
		pc, err := DialPoint(PointConfig{
			Addr: "faultnet:relay", Point: x, Kind: kind,
			W: fmW, M: fmM, D: fmD, Seed: fmSeed, Dial: link.Dial,
			DeltaUploads: c.delta(),
		})
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

// startRelay starts (or restarts) the relay node. The child-facing
// listener reuses the "relay" faultnet node, so the points' links keep
// working across a relay restart exactly as a TCP redial would.
func (c *tcluster) startRelay() {
	c.t.Helper()
	up := c.fnet.LinkTo(faultnet.DefaultNode)
	widths := map[int]int{}
	for x := 0; x < fmP; x++ {
		widths[x] = fmW
	}
	rs, err := ServeRelay(RelayConfig{
		Listener:     c.fnet.ListenAt("relay"),
		UpstreamAddr: "faultnet:center", UpstreamDial: up.Dial,
		Relay: trRelayID, Kind: c.kind, WindowN: fmN,
		Widths: widths,
		M:      fmM, D: fmD, Seed: fmSeed,
		CheckpointDir: c.relayDir, CheckpointEvery: 1,
		RedialBackoff: time.Millisecond, RedialBackoffMax: 4 * time.Millisecond,
		Logf: quietLogf,
	})
	if err != nil {
		c.t.Fatalf("start relay: %v", err)
	}
	c.relay = rs
}

func (c *tcluster) recordAll(k int) {
	for x := range c.pts {
		record(k, x, c.pts[x].Record)
	}
}

func (c *tcluster) endEpoch(x, k int) {
	c.t.Helper()
	if err := c.pts[x].EndEpoch(); err != nil {
		c.t.Fatalf("point %d EndEpoch(%d): %v", x, k, err)
	}
}

// healthyEpoch runs one fault-free epoch k through the tree and waits for
// the full round trip: uploads → relay merge → combined upload → center
// round k → push → relay fan-out → every point.
func (c *tcluster) healthyEpoch(k int, pushWant []int64) {
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

func (c *tcluster) checkOracle(x int, survived []pe, label string) {
	c.t.Helper()
	checkOracleQueries(c.t, c.kind, survived, label,
		c.pts[x].QuerySpread, c.pts[x].QuerySize)
}

func (c *tcluster) checkFullRecovery(x int, K int, label string) {
	c.t.Helper()
	if cov := c.pts[x].Coverage(); !cov.Full() {
		c.t.Fatalf("%s: point %d coverage %+v, want full", label, x, cov)
	}
	c.checkOracle(x, healthyWindow(x, K), label)
}

// Tree scenario 1: healthy operation. Three epochs flow through the
// relay; every count at every tier is exact, and each point's window is
// bit-identical to the flat deployment's (the same oracle the flat
// matrix checks against).
func TestFaultRelayHealthy(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			c.healthyEpoch(k, pushWant)
		}
		// The relay counts a round after fanning it out, so the points'
		// pushes can land before the counter moves.
		if !c.relay.WaitRounds(4) {
			t.Fatal("relay closed before round 4")
		}
		rs := c.relay.Stats()
		if rs.UploadsReceived != 4*fmP || rs.UploadsDuplicate != 0 {
			t.Fatalf("relay uploads/dups = %d/%d, want %d/0", rs.UploadsReceived, rs.UploadsDuplicate, 4*fmP)
		}
		if rs.Forwards != 4 || rs.RoundsForwarded != 4 {
			t.Fatalf("relay forwards/rounds = %d/%d, want 4/4", rs.Forwards, rs.RoundsForwarded)
		}
		ss := c.srv.Stats()
		if ss.UploadsReceived != 4 || ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center uploads/dup/gap = %d/%d/%d, want 4/0/0", ss.UploadsReceived, ss.UploadsDuplicate, ss.UploadsGap)
		}
		for x := range c.pts {
			c.checkFullRecovery(x, 5, "healthy tree")
		}
	})
}

// Tree scenario 2: the relay crashes with no durable state and restarts
// empty. The center's backfill exchange reseeds the relay's push cache
// (absorbed, never re-fanned — the children already merged those
// rounds), the children's retransmit buffers replay the lost epoch, and
// the tree converges to the oracle within one epoch.
func TestFaultRelayCrash(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		c.relay.Close()
		c.recordAll(4)
		for x := range c.pts {
			if err := c.pts[x].EndEpoch(); err == nil {
				t.Fatalf("point %d EndEpoch(4) must fail while the relay is down", x)
			}
		}

		// Restart empty: the relay's Hello carries StateEpoch 0 against the
		// center's resume epoch 4, so the center runs the same backfill
		// exchange it would for an amnesiac point. The relay absorbs the
		// backfill into its push cache and re-caches the round-3 push.
		c.startRelay()
		t.Cleanup(func() { c.relay.Close() })
		if !c.relay.WaitRounds(1) {
			t.Fatal("restarted relay never saw the center's re-push")
		}
		rs := c.relay.Stats()
		if rs.BackfillsAbsorbed != 1 {
			t.Fatalf("BackfillsAbsorbed = %d, want 1", rs.BackfillsAbsorbed)
		}
		if ss := c.srv.Stats(); ss.Backfills != 1 {
			t.Fatalf("center Backfills = %d, want 1", ss.Backfills)
		}

		// The points redial and replay their whole retained buffers (the
		// fresh relay has no per-child positions). Epochs 1..3 drop as
		// duplicates — they are already sealed below the resynchronized
		// forwarding position — and epoch 4 completes the stalled round.
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		if !c.srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after the relay restart")
		}
		// Each point: the reconnect re-push of round 3 (late) + the round-4
		// push (merged in the still-open epoch 5).
		for x := range c.pts {
			pushWant[x] += 2
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-restart pushes", x)
			}
			if st := c.pts[x].Stats(); st.UploadsDropped != 0 {
				t.Fatalf("point %d UploadsDropped = %d, want 0", x, st.UploadsDropped)
			}
		}
		rs = c.relay.Stats()
		if rs.UploadsDuplicate != 3*fmP {
			t.Fatalf("relay UploadsDuplicate = %d, want %d (replayed sealed epochs)", rs.UploadsDuplicate, 3*fmP)
		}
		if rs.UploadsReceived != fmP {
			t.Fatalf("relay UploadsReceived = %d, want %d (the stalled epoch only)", rs.UploadsReceived, fmP)
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
		if ss := c.srv.Stats(); ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}
		for x := range c.pts {
			c.checkFullRecovery(x, 6, "post-relay-crash")
		}
	})
}

// Tree scenario 3: the relay crashes and restarts from its checkpoint,
// mid-round — one child had already uploaded the next epoch, and that
// partial merge postdates the last checkpoint. The restored per-child
// positions make the child requeue exactly the lost upload; nothing is
// double-merged, nothing is backfilled, and the oracle holds.
func TestFaultRelayRestartCheckpoint(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, t.TempDir())
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}
		if !c.relay.WaitCheckpoints(3) {
			t.Fatal("relay checkpoints never written")
		}

		// Mid-round state the checkpoint does not cover: point 0 finishes
		// epoch 4 alone, then the relay dies.
		record(4, 0, c.pts[0].Record)
		c.endEpoch(0, 4)
		if !c.relay.WaitUploads(int64(3*fmP + 1)) {
			t.Fatal("relay never merged point 0's epoch-4 upload")
		}
		c.relay.Close()

		c.startRelay()
		t.Cleanup(func() { c.relay.Close() })
		rs := c.relay.Stats()
		if rs.RestoredGeneration == 0 {
			t.Fatal("relay restarted fresh, want a restored checkpoint generation")
		}
		// StateEpoch from the restored push cache equals the center's resume
		// epoch: no backfill, just the round-3 re-push.
		if !c.relay.WaitRounds(1) {
			t.Fatal("restarted relay never saw the center's re-push")
		}
		if ss := c.srv.Stats(); ss.Backfills != 0 || ss.Repushes != 1 {
			t.Fatalf("center Backfills/Repushes = %d/%d, want 0/1", ss.Backfills, ss.Repushes)
		}

		// Point 0's redial sees PointEpoch 3 from the restored positions and
		// requeues its sent-but-lost epoch-4 upload; point 1 lost nothing.
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		record(4, 1, c.pts[1].Record)
		c.endEpoch(1, 4)
		if !c.srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after the checkpoint restart")
		}
		// Each point: the reconnect re-push of round 3 + the round-4 push.
		for x := range c.pts {
			pushWant[x] += 2
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-restart pushes", x)
			}
		}
		if st := c.pts[0].Stats(); st.UploadsRetried != 1 {
			t.Fatalf("point 0 UploadsRetried = %d, want 1 (the checkpoint-lost upload)", st.UploadsRetried)
		}
		if rs := c.relay.Stats(); rs.UploadsDuplicate != 0 {
			t.Fatalf("relay UploadsDuplicate = %d, want 0 (positions restored exactly)", rs.UploadsDuplicate)
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
		if ss := c.srv.Stats(); ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}
		for x := range c.pts {
			c.checkFullRecovery(x, 6, "post-checkpoint-restart")
		}
	})
}

// Tree scenario 4: one child partitions mid-epoch. The relay's
// all-children barrier holds the round — the center must never see a
// partial subtree under full weight — until the child's retransmit
// replays, then the round completes untruncated.
func TestFaultRelayChildPartition(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		c.recordAll(4)
		c.links[0].Cut()
		if err := c.pts[0].EndEpoch(); err == nil {
			t.Fatal("EndEpoch over a cut child link must fail")
		}
		c.endEpoch(1, 4)
		// The relay merges point 1's half of round 4 but must not forward:
		// the barrier is what keeps its weighted coverage honest.
		if !c.relay.WaitUploads(int64(3*fmP + 1)) {
			t.Fatal("relay never merged point 1's epoch-4 upload")
		}
		rs := c.relay.Stats()
		if rs.Forwards != 3 {
			t.Fatalf("relay Forwards = %d, want 3 (round 4 must stall on the barrier)", rs.Forwards)
		}
		if ss := c.srv.Stats(); ss.RoundsPushed != 3 {
			t.Fatalf("center RoundsPushed = %d, want 3", ss.RoundsPushed)
		}

		if err := c.pts[0].Redial(); err != nil {
			t.Fatalf("redial: %v", err)
		}
		if !c.srv.WaitRounds(4) {
			t.Fatal("round 4 never completed after the child's retransmit")
		}
		// Point 0 sees the reconnect re-push of round 3 (late) plus the
		// round-4 push; point 1 only the latter.
		pushWant[0] += 2
		pushWant[1]++
		c.pts[0].WaitPushes(pushWant[0])
		c.pts[1].WaitPushes(pushWant[1])
		if st := c.pts[0].Stats(); st.UploadsRetried != 1 {
			t.Fatalf("point 0 UploadsRetried = %d, want 1", st.UploadsRetried)
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
		rs = c.relay.Stats()
		if rs.UploadsDuplicate != 0 {
			t.Fatalf("relay UploadsDuplicate = %d, want 0", rs.UploadsDuplicate)
		}
		if ss := c.srv.Stats(); ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}
		for x := range c.pts {
			c.checkFullRecovery(x, 6, "post-partition")
		}
	})
}

// Tree scenario 5: the upstream hop dies while the subtree stays
// healthy. The children keep completing epochs against the relay — their
// EndEpochs succeed, the combined uploads buffer at the relay — and the
// relay's autonomous redial drains the buffer the moment the center
// heals. The subtree never observes the outage.
func TestFaultRelayUpstreamOutage(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		c.fnet.Partition() // the center node only; the relay stays up
		if !c.relay.WaitUpstream(false) {
			t.Fatal("relay never noticed the dead upstream hop")
		}
		for k := 4; k <= 5; k++ {
			c.recordAll(k)
			for x := range c.pts {
				c.endEpoch(x, k) // must succeed: the relay absorbs the outage
			}
		}
		if !c.relay.WaitForwards(5) {
			t.Fatal("relay never buffered the outage rounds")
		}
		if ss := c.srv.Stats(); ss.RoundsPushed != 3 {
			t.Fatalf("center RoundsPushed = %d, want 3 during the outage", ss.RoundsPushed)
		}

		c.fnet.Heal()
		if !c.relay.WaitUpstream(true) {
			t.Fatal("relay redial never reconnected")
		}
		if !c.srv.WaitRounds(5) {
			t.Fatal("buffered rounds never drained after heal")
		}
		// Each point: the relay fans the center's reconnect re-push of round
		// 3 (late) + the round-4 push (late) + the round-5 push (merged in
		// the still-open epoch 6).
		for x := range c.pts {
			pushWant[x] += 3
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-heal pushes", x)
			}
		}
		rs := c.relay.Stats()
		if rs.UpstreamDials < 2 {
			t.Fatalf("relay UpstreamDials = %d, want >= 2", rs.UpstreamDials)
		}
		if rs.ForwardsDropped != 0 {
			t.Fatalf("relay ForwardsDropped = %d, want 0 (outage shorter than a window)", rs.ForwardsDropped)
		}
		if ss := c.srv.Stats(); ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("center dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}

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
			c.checkFullRecovery(x, 7, "post-upstream-outage")
		}
	})
}

// Tree scenario 6: the relay is down for LONGER than one window, so the
// children's retransmit buffers slide past epochs the restarted relay's
// strict in-order barrier would otherwise wait for — the post-outage
// wedge the live drill exposed. The reconnect handshake must resync the
// forwarding position from each child's Hello.StateEpoch (its buffer
// floor) so the retransmits land and the subtree recovers immediately;
// the outage epochs that fell off every buffer are honestly lost.
func TestFaultRelayOutageBeyondWindow(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}

		// Down for epochs 4..10 — seven epochs against a window of fmN=5.
		// The points keep measuring; their buffers retain only 6..10 and
		// drop 4 and 5 unsent.
		c.relay.Close()
		for k := 4; k <= 10; k++ {
			c.recordAll(k)
			for x := range c.pts {
				if err := c.pts[x].EndEpoch(); err == nil {
					t.Fatalf("point %d EndEpoch(%d) must fail while the relay is down", x, k)
				}
			}
		}
		for x := range c.pts {
			if st := c.pts[x].Stats(); st.UploadsDropped != 2 {
				t.Fatalf("point %d UploadsDropped = %d, want 2 (epochs 4 and 5 outlived the buffer)", x, st.UploadsDropped)
			}
		}

		// Restart empty (no checkpoint): upstream resync pins forwarded at
		// the center's last relay epoch, 3 — seven epochs behind the
		// children, two beyond what any buffer still holds.
		c.startRelay()
		t.Cleanup(func() { c.relay.Close() })
		if !c.relay.WaitRounds(1) {
			t.Fatal("restarted relay never saw the center's re-push")
		}
		if rs := c.relay.Stats(); rs.BackfillsAbsorbed != 1 {
			t.Fatalf("BackfillsAbsorbed = %d, want 1", rs.BackfillsAbsorbed)
		}

		// Each child reconnects announcing StateEpoch 11: its buffer floor
		// is 6, so the handshake abandons rounds 4 and 5 (forwarded 3 -> 5)
		// and every retransmitted epoch 6..10 completes a round. Without
		// the resync the barrier waits forever for epoch 4 and the whole
		// subtree wedges — this is the regression the live drill caught.
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		if !c.srv.WaitRounds(3 + 5) {
			t.Fatal("retransmitted rounds never completed after the long outage")
		}
		rs := c.relay.Stats()
		if rs.UploadsReceived != 5*fmP || rs.UploadsDuplicate != 0 {
			t.Fatalf("relay uploads/dups = %d/%d, want %d/0 (every buffered epoch lands)", rs.UploadsReceived, rs.UploadsDuplicate, 5*fmP)
		}
		if rs.Forwards != 5 || rs.ForwardsDropped != 0 {
			t.Fatalf("relay forwards/dropped = %d/%d, want 5/0", rs.Forwards, rs.ForwardsDropped)
		}
		for x := range c.pts {
			// The reconnect re-push plus one push per recovered round; the
			// stale ones drop as late, the round-10 push restores the window.
			pushWant[x] += 6
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-restart pushes", x)
			}
			if st := c.pts[x].Stats(); st.UploadsRetried != 5 {
				t.Fatalf("point %d UploadsRetried = %d, want 5", x, st.UploadsRetried)
			}
		}

		// Two healthy epochs slide the lost rounds out of the window: the
		// query at epoch 13 covers rounds 9..11 plus the point's own 12,
		// all recovered — full coverage, oracle-exact.
		for k := 11; k <= 12; k++ {
			c.recordAll(k)
			for x := range c.pts {
				c.endEpoch(x, k)
			}
			if !c.srv.WaitRounds(int64(3 + 5 + k - 10)) {
				t.Fatalf("round for epoch %d never completed", k)
			}
			for x := range c.pts {
				pushWant[x]++
				if !c.pts[x].WaitPushes(pushWant[x]) {
					t.Fatalf("epoch %d: point %d closed before push", k, x)
				}
			}
		}
		if ss := c.srv.Stats(); ss.UploadsDuplicate != 0 {
			t.Fatalf("center UploadsDuplicate = %d, want 0", ss.UploadsDuplicate)
		}
		for x := range c.pts {
			c.checkFullRecovery(x, 13, "post-long-outage")
		}
	})
}

// TestRelayTreeEqualsFlatLive drives the flat and the tree deployments
// over identical traffic on live transports and asserts every estimate
// is identical — the transport-level counterpart of the simulator's
// flat-vs-tree equality matrix. The flat size deployment runs the
// paper's cumulative chain while the tree must run delta; on a healthy
// trace the two recover identical window sums, so even across modes the
// estimates match exactly.
func TestRelayTreeEqualsFlatLive(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		tree := newTCluster(t, kind, "")
		flat := newFCluster(t, kind)
		treeWant := make([]int64, fmP)
		flatWant := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			tree.healthyEpoch(k, treeWant)
			flat.healthyEpoch(k, flatWant)
		}
		for x := 0; x < fmP; x++ {
			for f := uint64(0); f < 8; f++ {
				if kind == KindSpread {
					a, err := tree.pts[x].QuerySpread(f)
					if err != nil {
						t.Fatal(err)
					}
					b, err := flat.pts[x].QuerySpread(f)
					if err != nil {
						t.Fatal(err)
					}
					if a != b {
						t.Fatalf("point %d flow %d: tree %.4f != flat %.4f", x, f, a, b)
					}
					continue
				}
				a, err := tree.pts[x].QuerySize(f)
				if err != nil {
					t.Fatal(err)
				}
				b, err := flat.pts[x].QuerySize(f)
				if err != nil {
					t.Fatal(err)
				}
				if a != b {
					t.Fatalf("point %d flow %d: tree %d != flat %d", x, f, a, b)
				}
			}
		}
	})
}
