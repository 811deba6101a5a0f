package transport

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// ShardedPointConfig describes one measurement point of a sharded center
// deployment: the flow space is hash-partitioned across len(Addrs) center
// instances, and the point maintains one sub-point per shard, each
// carrying only the flows its shard owns.
type ShardedPointConfig struct {
	// Addrs lists the shard centers' addresses, indexed by shard number.
	// Every participant (points, the query router) must agree on the
	// order and on Seed, which keys the flow partition.
	Addrs []string
	// Point is this point's id, identical on every shard.
	Point int
	// Kind, W, M, D, Seed mirror PointConfig. Seed doubles as the
	// flow-partition key (tag-mixed, so the partition hash is independent
	// of the sketch hashes).
	Kind Kind
	W, M int
	D    int
	Seed uint64
	// Dial, DialTimeout and the Redial* knobs apply to every sub-point.
	Dial             func(addr string) (net.Conn, error)
	DialTimeout      time.Duration
	RedialAttempts   int
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// CheckpointDir, when set, stores each sub-point's checkpoints under
	// a shard-<i> subdirectory.
	CheckpointDir string
	// DeltaUploads applies to every sub-point (required when shards sit
	// behind relays).
	DeltaUploads bool
	// WriteTimeout and HeartbeatEvery apply to every sub-point (see
	// PointConfig): each shard connection is kept alive and bounded
	// independently, so one half-open shard cannot wedge the others.
	WriteTimeout   time.Duration
	HeartbeatEvery time.Duration
}

// ShardedPointClient fans one logical measurement point across N center
// shards. Record routes each flow to the sub-point of its owning shard;
// queries union all sub-points' windows, which restores the flat center's
// answer exactly: a flow's packets land wholly in one shard, so the union
// of the per-shard sub-sketches over a disjoint flow partition is
// bit-identical to the unsharded sketch (both register-max and
// counter-add distribute over the partition).
type ShardedPointClient struct {
	cfg  ShardedPointConfig
	part core.FlowPartition
	subs []*PointClient
}

// DialShardedPoint connects one sub-point per shard. All shards must
// accept, or the whole dial fails and nothing stays connected.
func DialShardedPoint(cfg ShardedPointConfig) (*ShardedPointClient, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("transport: sharded point needs at least one shard address")
	}
	c := &ShardedPointClient{
		cfg:  cfg,
		part: core.NewFlowPartition(cfg.Seed, len(cfg.Addrs)),
		subs: make([]*PointClient, len(cfg.Addrs)),
	}
	for i, addr := range cfg.Addrs {
		sub := PointConfig{
			Addr: addr, Point: cfg.Point, Kind: cfg.Kind,
			W: cfg.W, M: cfg.M, D: cfg.D, Seed: cfg.Seed,
			Dial: cfg.Dial, DialTimeout: cfg.DialTimeout,
			RedialAttempts: cfg.RedialAttempts, RedialBackoff: cfg.RedialBackoff,
			RedialBackoffMax: cfg.RedialBackoffMax,
			Shard:            i,
			DeltaUploads:     cfg.DeltaUploads,
			WriteTimeout:     cfg.WriteTimeout,
			HeartbeatEvery:   cfg.HeartbeatEvery,
		}
		if cfg.CheckpointDir != "" {
			sub.CheckpointDir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("shard-%d", i))
		}
		pc, err := DialPoint(sub)
		if err != nil {
			for _, prev := range c.subs[:i] {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("transport: dial shard %d: %w", i, err)
		}
		c.subs[i] = pc
	}
	return c, nil
}

// Shards returns the shard count.
func (c *ShardedPointClient) Shards() int { return len(c.subs) }

// ShardOf returns the shard owning flow f.
func (c *ShardedPointClient) ShardOf(f uint64) int { return c.part.Shard(f) }

// Sub returns the sub-point connected to shard i (diagnostics and tests).
func (c *ShardedPointClient) Sub(i int) *PointClient { return c.subs[i] }

// Record inserts one packet, routed to the owning shard's sub-point.
func (c *ShardedPointClient) Record(f, e uint64) { c.subs[c.part.Shard(f)].Record(f, e) }

// RecordBatch partitions a batch by owning shard and inserts each part
// through that sub-point's RecordBatch.
func (c *ShardedPointClient) RecordBatch(ps []core.SpreadPacket) {
	if len(c.subs) == 1 {
		c.subs[0].RecordBatch(ps)
		return
	}
	parts := make([][]core.SpreadPacket, len(c.subs))
	for _, p := range ps {
		i := c.part.Shard(p.Flow)
		parts[i] = append(parts[i], p)
	}
	for i, part := range parts {
		if len(part) > 0 {
			c.subs[i].RecordBatch(part)
		}
	}
}

// EndEpoch advances every sub-point and uploads to every shard. The local
// epochs always advance in lockstep; a down shard reports its error while
// the others proceed (their uploads must not stall behind a dead shard).
func (c *ShardedPointClient) EndEpoch() error {
	var errs []error
	for i, sub := range c.subs {
		if err := sub.EndEpoch(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// union answers a T-query over the union of every shard's window. Queries
// always start at sub 0, so concurrent queries take the sub-point locks
// in one consistent order.
func (c *ShardedPointClient) union(f uint64) (float64, core.Coverage, error) {
	peers := make([]pointEngine, len(c.subs)-1)
	for i, sub := range c.subs[1:] {
		peers[i] = sub.eng
	}
	return c.subs[0].eng.queryUnionCov(f, peers)
}

// QuerySpread answers a networkwide spread T-query over all shards
// (bit-identical to the flat center's answer on the same trace).
func (c *ShardedPointClient) QuerySpread(f uint64) (float64, error) {
	if c.cfg.Kind != KindSpread {
		return 0, errors.New("transport: point runs the size design")
	}
	v, _, err := c.union(f)
	return v, err
}

// QuerySize answers a networkwide size T-query over all shards.
func (c *ShardedPointClient) QuerySize(f uint64) (int64, error) {
	if c.cfg.Kind != KindSize {
		return 0, errors.New("transport: point runs the spread design")
	}
	v, _, err := c.union(f)
	return int64(v), err
}

// QuerySpreadWithCoverage additionally reports the summed window coverage
// across shards, taken atomically with the estimate.
func (c *ShardedPointClient) QuerySpreadWithCoverage(f uint64) (float64, core.Coverage, error) {
	if c.cfg.Kind != KindSpread {
		return 0, core.Coverage{}, errors.New("transport: point runs the size design")
	}
	return c.union(f)
}

// QuerySizeWithCoverage additionally reports the summed window coverage
// across shards, taken atomically with the estimate.
func (c *ShardedPointClient) QuerySizeWithCoverage(f uint64) (int64, core.Coverage, error) {
	if c.cfg.Kind != KindSize {
		return 0, core.Coverage{}, errors.New("transport: point runs the spread design")
	}
	v, cov, err := c.union(f)
	return int64(v), cov, err
}

// Epoch returns the current epoch (identical across sub-points: EndEpoch
// advances them in lockstep).
func (c *ShardedPointClient) Epoch() int64 { return c.subs[0].Epoch() }

// Redial reconnects every sub-point whose connection is down.
func (c *ShardedPointClient) Redial() error {
	var errs []error
	for i, sub := range c.subs {
		if err := sub.Redial(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Stats sums the sub-points' counters. Epoch is the lockstep epoch;
// LastPushEpoch is the LOWEST sub-point's, so the reported lag reflects
// the most-behind shard (the one bounding window coverage).
func (c *ShardedPointClient) Stats() PointStats {
	var total PointStats
	for i, sub := range c.subs {
		st := sub.Stats()
		total.Epoch = st.Epoch
		if i == 0 || st.LastPushEpoch < total.LastPushEpoch {
			total.LastPushEpoch = st.LastPushEpoch
		}
		total.PushesApplied += st.PushesApplied
		total.PushesLate += st.PushesLate
		total.PushesDuplicate += st.PushesDuplicate
		total.UploadsRetried += st.UploadsRetried
		total.UploadsDropped += st.UploadsDropped
		total.BackfillsApplied += st.BackfillsApplied
		total.CheckpointsWritten += st.CheckpointsWritten
		total.HeartbeatsSent += st.HeartbeatsSent
		total.WriteTimeouts += st.WriteTimeouts
	}
	return total
}

// Close disconnects every sub-point.
func (c *ShardedPointClient) Close() error {
	var errs []error
	for _, sub := range c.subs {
		if err := sub.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
