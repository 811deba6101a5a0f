package transport

import (
	"os"
	"testing"

	"repro/internal/durable"
	"repro/internal/faultnet"
)

// The crash matrix: process-death scenarios × both designs. Where the
// fault matrix (faultmatrix_test.go) kills connections, these tests kill
// whole processes — the center or a point dies, its in-memory state is
// gone, and a new process must rebuild from the durable checkpoints
// (internal/durable) plus the protocol's recovery exchanges. Same
// determinism rules: no sleeps, only condition-variable waits.

// newCrashCluster is newFCluster plus durability: the center checkpoints
// into a temp dir at the given cadence, and withPointDirs gives every
// point its own checkpoint dir.
func newCrashCluster(t *testing.T, kind Kind, every int, withPointDirs bool) *fcluster {
	t.Helper()
	c := &fcluster{t: t, kind: kind, fnet: faultnet.New(fmSeed)}
	c.ckptDir = t.TempDir()
	c.ckptEvery = every
	if withPointDirs {
		for x := 0; x < fmP; x++ {
			c.ptDirs = append(c.ptDirs, t.TempDir())
		}
	}
	widths := map[int]int{}
	for x := 0; x < fmP; x++ {
		widths[x] = fmW
	}
	srv, err := ServeCenter(CenterConfig{
		Listener: c.fnet.Listen(), Kind: kind, WindowN: fmN,
		Widths: widths, M: fmM, D: fmD, Seed: fmSeed, Logf: quietLogf,
		CheckpointDir: c.ckptDir, CheckpointEvery: c.ckptEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.srv = srv
	t.Cleanup(func() { c.srv.Close() })
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

// restartCenter models a center process death and restart: the old server
// (and every connection) dies, a new one starts on the same checkpoint
// directory and a fresh listener, and the points must Redial into it.
func (c *fcluster) restartCenter(t *testing.T) {
	t.Helper()
	c.srv.Close()
	widths := map[int]int{}
	for x := 0; x < fmP; x++ {
		widths[x] = fmW
	}
	srv, err := ServeCenter(CenterConfig{
		Listener: c.fnet.Listen(), Kind: c.kind, WindowN: fmN,
		Widths: widths, M: fmM, D: fmD, Seed: fmSeed, Logf: quietLogf,
		CheckpointDir: c.ckptDir, CheckpointEvery: c.ckptEvery,
	})
	if err != nil {
		t.Fatalf("restart center: %v", err)
	}
	c.srv = srv
	t.Cleanup(func() { srv.Close() })
}

// Scenario C1: the center dies after a round its checkpoint cadence had
// not yet persisted. The restored window is one epoch behind; the points'
// sent-upload history replays the missing epoch, the lost round refires,
// and estimates match the oracle on every surviving epoch.
func TestFaultCrashCenterRestore(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newCrashCluster(t, kind, 2, false)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 5; k++ {
			c.healthyEpoch(k, pushWant)
		}
		// Cadence 2 checkpointed after rounds 2 and 4; round 5 (epoch-5
		// uploads, ForEpoch-6 push) died with the process.
		if !c.srv.WaitCheckpoints(2) {
			t.Fatal("checkpoints never written")
		}

		c.restartCenter(t)
		ss := c.srv.Stats()
		if ss.RestoredGeneration != 2 {
			t.Fatalf("RestoredGeneration = %d, want 2", ss.RestoredGeneration)
		}
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		// Each point requeues its sent epoch-5 upload (the Welcome's
		// PointEpoch says the center only has 1..4); the round refires.
		if !c.srv.WaitRounds(1) {
			t.Fatal("lost round never refired after restore")
		}
		for x := range c.pts {
			// Re-push of round 5 (stale: already merged) + refired round-5
			// push for epoch 6 (duplicate: also already merged).
			pushWant[x] += 2
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-restore pushes", x)
			}
			if st := c.pts[x].Stats(); st.UploadsRetried != 1 {
				t.Fatalf("point %d UploadsRetried = %d, want 1", x, st.UploadsRetried)
			}
		}
		ss = c.srv.Stats()
		if ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("dup/gap = %d/%d, want 0/0 (restored center lost epoch 5)", ss.UploadsDuplicate, ss.UploadsGap)
		}
		if ss.Repushes != fmP || ss.Backfills != 0 {
			t.Fatalf("Repushes/Backfills = %d/%d, want %d/0", ss.Repushes, ss.Backfills, fmP)
		}

		// One healthy epoch later the window is whole again and estimates
		// equal a never-crashed cluster's: epochs 3..4 restored from the
		// checkpoint, 5 replayed, 6 fresh.
		c.recordAll(6)
		for x := range c.pts {
			c.endEpoch(x, 6)
		}
		if !c.srv.WaitRounds(2) {
			t.Fatal("round 6 never completed")
		}
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 7), "post-restore")
		}
	})
}

// Scenario C2: the center is killed mid-checkpoint — the newest
// generation file is torn. Load must fall back to the previous intact
// generation with no decode or CRC errors surfacing, and the cluster
// recovers exactly as from a clean one-generation-old checkpoint.
func TestFaultCrashCenterMidCheckpoint(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newCrashCluster(t, kind, 1, false)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}
		if !c.srv.WaitCheckpoints(3) {
			t.Fatal("checkpoints never written")
		}

		// Kill the center and tear the newest generation in half, as a
		// crash between the data write and its fsync leaves it.
		c.srv.Close()
		store, err := durable.Open(c.ckptDir, "center")
		if err != nil {
			t.Fatal(err)
		}
		newest := store.LatestGen()
		if newest != 3 {
			t.Fatalf("LatestGen = %d, want 3", newest)
		}
		path := store.GenPath(newest)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}

		c.restartCenter(t)
		ss := c.srv.Stats()
		if ss.RestoredGeneration != newest-1 {
			t.Fatalf("RestoredGeneration = %d, want %d (fallback past the torn file)",
				ss.RestoredGeneration, newest-1)
		}
		for x := range c.pts {
			if err := c.pts[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		// Generation 2 holds epochs 1..2; the points replay epoch 3 and the
		// lost round refires.
		if !c.srv.WaitRounds(1) {
			t.Fatal("lost round never refired after fallback")
		}
		for x := range c.pts {
			pushWant[x] += 2 // stale re-push + duplicate refired push
			if !c.pts[x].WaitPushes(pushWant[x]) {
				t.Fatalf("point %d missed post-fallback pushes", x)
			}
		}

		c.recordAll(4)
		for x := range c.pts {
			c.endEpoch(x, 4)
		}
		if !c.srv.WaitRounds(2) {
			t.Fatal("round 4 never completed")
		}
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 5), "post-fallback")
		}
	})
}

// Scenario C3: a point dies and restarts from its own epoch-boundary
// checkpoint. The restored client resumes at the same epoch with the
// same window, replays its possibly-unsent last upload (dropped as a
// duplicate here), reapplies the current round's push, and the cluster
// never notices: no gap, no backfill, full coverage throughout.
func TestFaultCrashPointRestore(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newCrashCluster(t, kind, 1, true)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			c.healthyEpoch(k, pushWant)
		}
		if got := c.pts[0].Stats().CheckpointsWritten; got != 4 {
			t.Fatalf("CheckpointsWritten = %d, want 4 (one per epoch)", got)
		}
		if err := c.pts[0].LastCheckpointErr(); err != nil {
			t.Fatalf("LastCheckpointErr = %v", err)
		}

		// Kill point 0 and restart it from its checkpoint directory.
		c.pts[0].Close()
		pc, err := DialPoint(c.pointConfig(0, c.links[0]))
		if err != nil {
			t.Fatalf("restart dial: %v", err)
		}
		c.pts[0] = pc
		if got := pc.Epoch(); got != 5 {
			t.Fatalf("restored point resumed at epoch %d, want 5", got)
		}
		// The checkpoint predates the round-4 push, so the reconnect
		// re-push is applied fresh — no backfill exchange is needed.
		pushWant[0] = 1
		if !pc.WaitPushes(1) {
			t.Fatal("restored point never saw the re-push")
		}
		st := pc.Stats()
		if st.PushesApplied != 1 || st.BackfillsApplied != 0 {
			t.Fatalf("PushesApplied/BackfillsApplied = %d/%d, want 1/0",
				st.PushesApplied, st.BackfillsApplied)
		}
		if cov := pc.Coverage(); !cov.Full() {
			t.Fatalf("restored coverage %+v, want full", cov)
		}
		// The restored window answers queries exactly as before the crash.
		c.checkOracle(0, healthyWindow(0, 5), "after restore")
		// The checkpoint was cut before the epoch-4 upload flushed, so the
		// restored client resends it and the center drops the duplicate.
		if !c.srv.WaitUploads(int64(4*fmP + 1)) {
			t.Fatal("replayed upload never arrived")
		}
		ss := c.srv.Stats()
		if ss.UploadsDuplicate != 1 || ss.Backfills != 0 || ss.Repushes != 1 {
			t.Fatalf("dup/backfills/repushes = %d/%d/%d, want 1/0/1",
				ss.UploadsDuplicate, ss.Backfills, ss.Repushes)
		}

		c.recordAll(5)
		for x := range c.pts {
			c.endEpoch(x, 5)
		}
		if !c.srv.WaitRounds(5) {
			t.Fatal("round 5 never completed")
		}
		for x := range c.pts {
			pushWant[x]++
			c.pts[x].WaitPushes(pushWant[x])
		}
		if ss := c.srv.Stats(); ss.UploadsGap != 0 {
			t.Fatalf("UploadsGap = %d, want 0 (restored chain must hold)", ss.UploadsGap)
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 6), "post-restart")
		}
	})
}

// Scenario C4: a point is down across epoch boundaries and restarts with
// nothing while the rest of the cluster kept measuring. The backfill
// exchange hands it every surviving point-epoch at once — coverage is
// immediately honest (5 of 6: its own unmeasured epoch is gone for good)
// and estimates are exact on the survivors; the window heals back to
// full as the lost epochs age out.
func TestFaultCrashPointBackfill(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newCrashCluster(t, kind, 1, false)
		pushWant := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			c.healthyEpoch(k, pushWant)
		}

		// Point 0 dies; point 1 measures on through epochs 5 and 6. Those
		// rounds cannot complete (point 0's uploads are missing forever).
		c.pts[0].Close()
		for k := 5; k <= 6; k++ {
			record(k, 1, c.pts[1].Record)
			c.endEpoch(1, k)
		}
		if !c.srv.WaitUploads(int64(4*fmP + 2)) {
			t.Fatal("point 1's solo uploads never arrived")
		}

		// Restart point 0 with no state. The Welcome advances it to the
		// cluster epoch and the center backfills the round-6 aggregate
		// (epochs 3..5) plus the staged round push.
		pc, err := DialPoint(c.pointConfig(0, c.links[0]))
		if err != nil {
			t.Fatalf("restart dial: %v", err)
		}
		c.pts[0] = pc
		if got := pc.Epoch(); got != 7 {
			t.Fatalf("restarted point resumed at epoch %d, want 7", got)
		}
		pushWant[0] = 2
		if !pc.WaitPushes(2) {
			t.Fatal("restarted point never saw the backfill + staged push")
		}
		st := pc.Stats()
		if st.BackfillsApplied != 1 || st.PushesApplied != 1 {
			t.Fatalf("BackfillsApplied/PushesApplied = %d/%d, want 1/1",
				st.BackfillsApplied, st.PushesApplied)
		}
		// Honest partial coverage: the aggregate span 3..5 holds five of
		// six point-epochs — point 0's own epoch 5 was never measured.
		cov := pc.Coverage()
		if cov.EpochsMerged != 5 || cov.EpochsExpected != 6 {
			t.Fatalf("post-backfill coverage %+v, want 5/6", cov)
		}
		c.checkOracle(0, []pe{{0, 3}, {0, 4}, {1, 3}, {1, 4}, {1, 5}}, "after backfill")
		if ss := c.srv.Stats(); ss.Backfills != 1 {
			t.Fatalf("Backfills = %d, want 1", ss.Backfills)
		}

		// Healthy epochs 7..10: the lost epochs age out of the join span
		// and both points return to full coverage with exact estimates.
		for k := 7; k <= 10; k++ {
			c.recordAll(k)
			for x := range c.pts {
				c.endEpoch(x, k)
			}
			if !c.srv.WaitRounds(int64(k - 2)) {
				t.Fatalf("round for epoch %d never completed", k)
			}
			for x := range c.pts {
				pushWant[x]++
				if !c.pts[x].WaitPushes(pushWant[x]) {
					t.Fatalf("epoch %d: point %d missed its push", k, x)
				}
			}
		}
		if ss := c.srv.Stats(); ss.UploadsGap != 0 {
			t.Fatalf("UploadsGap = %d, want 0 (restart rebase must reseed the chain)", ss.UploadsGap)
		}
		for x := range c.pts {
			if cov := c.pts[x].Coverage(); !cov.Full() {
				t.Fatalf("point %d coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 11), "healed")
		}
	})
}
