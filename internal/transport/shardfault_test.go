package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// The shard matrix: a flow-sharded center deployment (two shard centers,
// each owning half the flow space by partition hash) driven over the
// faultnet fabric. The sharded client must answer every T-query exactly
// as a flat center fed the same trace — the partition is disjoint, so
// the union of per-shard windows is bit-identical to the unsharded
// window — and one shard's death must leave the other shard's rounds
// flowing, then heal from its checkpoint without losing an epoch.

const sfShards = 2

func shardNode(i int) string { return fmt.Sprintf("shard%d", i) }

// scluster is one sharded fault-matrix deployment: sfShards shard
// centers on their own faultnet nodes and fmP sharded points, each
// holding one fault link per shard.
type scluster struct {
	t         *testing.T
	kind      Kind
	fnet      *faultnet.Network
	shards    []*CenterServer
	links     [][]*faultnet.Link // [point][shard]
	scs       []*ShardedPointClient
	shardDirs []string // per-shard checkpoint directories (nil = off)
}

func newSCluster(t *testing.T, kind Kind, withCkpt bool) *scluster {
	t.Helper()
	c := &scluster{t: t, kind: kind, fnet: faultnet.New(fmSeed),
		shards: make([]*CenterServer, sfShards)}
	if withCkpt {
		for i := 0; i < sfShards; i++ {
			c.shardDirs = append(c.shardDirs, t.TempDir())
		}
	}
	for i := 0; i < sfShards; i++ {
		c.startShard(i)
	}
	t.Cleanup(func() {
		for _, srv := range c.shards {
			srv.Close()
		}
	})
	addrs := make([]string, sfShards)
	for i := range addrs {
		addrs[i] = "faultnet:" + shardNode(i)
	}
	for x := 0; x < fmP; x++ {
		links := make([]*faultnet.Link, sfShards)
		for i := range links {
			links[i] = c.fnet.LinkTo(shardNode(i))
		}
		c.links = append(c.links, links)
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
		})
		if err != nil {
			t.Fatal(err)
		}
		c.scs = append(c.scs, sc)
	}
	t.Cleanup(func() {
		for _, sc := range c.scs {
			sc.Close()
		}
	})
	// The equality claims below are only meaningful when the partition
	// actually splits the test flows; guard against a degenerate seed.
	for i := 0; i < sfShards; i++ {
		owned := 0
		for f := uint64(0); f < 8; f++ {
			if c.scs[0].ShardOf(f) == i {
				owned++
			}
		}
		if owned == 0 {
			t.Fatalf("shard %d owns none of the 8 test flows; pick a different fmSeed", i)
		}
	}
	return c
}

// startShard (re)starts shard i on its faultnet node, restoring from its
// checkpoint directory when the cluster runs with durability on.
func (c *scluster) startShard(i int) {
	c.t.Helper()
	widths := map[int]int{}
	for x := 0; x < fmP; x++ {
		widths[x] = fmW
	}
	cfg := CenterConfig{
		Listener: c.fnet.ListenAt(shardNode(i)), Kind: c.kind, WindowN: fmN,
		Widths: widths, M: fmM, D: fmD, Seed: fmSeed,
		Shard: i, Logf: quietLogf,
	}
	if i < len(c.shardDirs) {
		cfg.CheckpointDir = c.shardDirs[i]
		cfg.CheckpointEvery = 1
	}
	srv, err := ServeCenter(cfg)
	if err != nil {
		c.t.Fatalf("start shard %d: %v", i, err)
	}
	c.shards[i] = srv
}

// healthyEpoch runs one fault-free epoch k across every shard: records,
// ends the epoch on every point (uploading to all shards), then waits for
// each shard's round and each sub-point's push deterministically.
// roundWant tracks rounds per shard, because a restarted shard's counter
// restarts from zero.
func (c *scluster) healthyEpoch(k int, pushWant [][]int64, roundWant []int64) {
	c.t.Helper()
	for x := range c.scs {
		record(k, x, c.scs[x].Record)
	}
	for x := range c.scs {
		if err := c.scs[x].EndEpoch(); err != nil {
			c.t.Fatalf("point %d EndEpoch(%d): %v", x, k, err)
		}
	}
	for i, srv := range c.shards {
		roundWant[i]++
		if !srv.WaitRounds(roundWant[i]) {
			c.t.Fatalf("epoch %d: shard %d closed before round", k, i)
		}
	}
	for x := range c.scs {
		for i := 0; i < sfShards; i++ {
			pushWant[x][i]++
			if !c.scs[x].Sub(i).WaitPushes(pushWant[x][i]) {
				c.t.Fatalf("epoch %d: point %d shard %d closed before push", k, x, i)
			}
		}
	}
}

// unionCoverage reports point x's summed cross-shard window coverage.
func (c *scluster) unionCoverage(x int) core.Coverage {
	c.t.Helper()
	var cov core.Coverage
	var err error
	if c.kind == KindSpread {
		_, cov, err = c.scs[x].QuerySpreadWithCoverage(1)
	} else {
		_, cov, err = c.scs[x].QuerySizeWithCoverage(1)
	}
	if err != nil {
		c.t.Fatal(err)
	}
	return cov
}

func (c *scluster) checkOracle(x int, survived []pe, label string) {
	c.t.Helper()
	checkOracleQueries(c.t, c.kind, survived, label,
		c.scs[x].QuerySpread, c.scs[x].QuerySize)
}

// Sharded scenario 1: on a healthy trace, the sharded deployment answers
// every flow exactly as a flat center fed the same packets — the same
// estimate bit for bit, full coverage, and oracle equality over the
// healthy window.
func TestShardedEqualsFlat(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		sc := newSCluster(t, kind, false)
		fc := newFCluster(t, kind)
		scPush := [][]int64{make([]int64, sfShards), make([]int64, sfShards)}
		scRounds := make([]int64, sfShards)
		fcPush := make([]int64, fmP)
		for k := 1; k <= 4; k++ {
			sc.healthyEpoch(k, scPush, scRounds)
			fc.healthyEpoch(k, fcPush)
		}
		for x := 0; x < fmP; x++ {
			if cov := sc.unionCoverage(x); !cov.Full() {
				t.Fatalf("point %d union coverage %+v, want full", x, cov)
			}
			for f := uint64(0); f < 8; f++ {
				if kind == KindSpread {
					got, err := sc.scs[x].QuerySpread(f)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fc.pts[x].QuerySpread(f)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("point %d flow %d: sharded %.4f != flat %.4f", x, f, got, want)
					}
				} else {
					got, err := sc.scs[x].QuerySize(f)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fc.pts[x].QuerySize(f)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("point %d flow %d: sharded %d != flat %d", x, f, got, want)
					}
				}
			}
			sc.checkOracle(x, healthyWindow(x, 5), "sharded healthy")
		}
	})
}

// Sharded scenario 2: one shard center dies mid-deployment. The points'
// epoch clocks keep advancing in lockstep, the surviving shard's rounds
// keep completing, EndEpoch reports exactly the dead shard, queries stay
// exact over the staged window — and after the shard restarts from its
// checkpoint, the retransmit buffers replay the lost epoch and the union
// returns to full coverage and oracle equality within one epoch.
func TestFaultShardFailover(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newSCluster(t, kind, true)
		pushWant := [][]int64{make([]int64, sfShards), make([]int64, sfShards)}
		roundWant := make([]int64, sfShards)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant, roundWant)
		}
		if !c.shards[1].WaitCheckpoints(3) {
			t.Fatal("shard 1 checkpoints never written")
		}

		// Shard 1 dies: its node partitions (cutting every live conn) and
		// its server closes. Epoch 4 proceeds on shard 0 alone.
		c.fnet.PartitionNode(shardNode(1))
		c.shards[1].Close()
		for x := range c.scs {
			record(4, x, c.scs[x].Record)
		}
		for x := range c.scs {
			err := c.scs[x].EndEpoch()
			if err == nil {
				t.Fatalf("point %d EndEpoch(4) must report the dead shard", x)
			}
			if !strings.Contains(err.Error(), "shard 1") {
				t.Fatalf("point %d EndEpoch error %q does not name shard 1", x, err)
			}
			if strings.Contains(err.Error(), "shard 0") {
				t.Fatalf("point %d EndEpoch error %q blames healthy shard 0", x, err)
			}
		}
		roundWant[0]++
		if !c.shards[0].WaitRounds(roundWant[0]) {
			t.Fatal("shard 0 round 4 must complete during the failover")
		}
		for x := range c.scs {
			pushWant[x][0]++
			if !c.scs[x].Sub(0).WaitPushes(pushWant[x][0]) {
				t.Fatalf("point %d missed shard-0 round-4 push", x)
			}
		}
		// Queries during the failover: the epoch-5 window was staged before
		// the shard died (each sub's round-3 aggregate arrived in epoch 4),
		// so coverage is still whole and the estimates still match the
		// healthy oracle — degradation would only surface one epoch later.
		for x := range c.scs {
			if cov := c.unionCoverage(x); !cov.Full() {
				t.Fatalf("point %d failover coverage %+v, want full (staged window)", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 5), "during failover")
		}

		// Restart shard 1 from its checkpoint and reconnect. Redial skips
		// the healthy shard-0 subs; the shard-1 subs replay their buffered
		// epoch-4 uploads and the lost round refires.
		c.fnet.HealNode(shardNode(1))
		c.startShard(1)
		if got := c.shards[1].Stats().RestoredGeneration; got != 3 {
			t.Fatalf("shard 1 RestoredGeneration = %d, want 3", got)
		}
		for x := range c.scs {
			if err := c.scs[x].Redial(); err != nil {
				t.Fatalf("point %d redial: %v", x, err)
			}
		}
		roundWant[1] = 1 // restarted counter: the refired round 4
		if !c.shards[1].WaitRounds(roundWant[1]) {
			t.Fatal("shard 1 round 4 never refired after restart")
		}
		for x := range c.scs {
			// Reconnect re-push of round 3 (late: staged pre-crash) plus the
			// refired round-4 push (merged: the sub is still in epoch 5).
			pushWant[x][1] += 2
			if !c.scs[x].Sub(1).WaitPushes(pushWant[x][1]) {
				t.Fatalf("point %d missed shard-1 post-restart pushes", x)
			}
			st := c.scs[x].Sub(1).Stats()
			if st.UploadsRetried != 1 {
				t.Fatalf("point %d shard-1 UploadsRetried = %d, want 1", x, st.UploadsRetried)
			}
			if st.PushesLate != 1 || st.PushesDuplicate != 0 {
				t.Fatalf("point %d shard-1 late/dup pushes = %d/%d, want 1/0",
					x, st.PushesLate, st.PushesDuplicate)
			}
		}
		ss := c.shards[1].Stats()
		if ss.UploadsDuplicate != 0 || ss.UploadsGap != 0 {
			t.Fatalf("shard 1 dup/gap = %d/%d, want 0/0", ss.UploadsDuplicate, ss.UploadsGap)
		}
		if ss.Repushes != fmP || ss.Backfills != 0 {
			t.Fatalf("shard 1 Repushes/Backfills = %d/%d, want %d/0", ss.Repushes, ss.Backfills, fmP)
		}

		// One healthy epoch later the union is whole again and every flow —
		// on both shards — matches a never-faulted cluster.
		c.healthyEpoch(5, pushWant, roundWant)
		for x := range c.scs {
			if cov := c.unionCoverage(x); !cov.Full() {
				t.Fatalf("point %d post-recovery coverage %+v, want full", x, cov)
			}
			c.checkOracle(x, healthyWindow(x, 6), "post-failover")
		}
	})
}
