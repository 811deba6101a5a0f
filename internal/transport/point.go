package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// PointConfig describes a live measurement point.
type PointConfig struct {
	// Addr is the center's address.
	Addr string
	// Point is this point's id in the center's topology.
	Point int
	// Kind selects the size or spread design.
	Kind Kind
	// W, M, D, Seed are the sketch parameters (matching the center).
	W, M, D int
	Seed    uint64
	// Dial, if set, replaces net.Dial for reaching the center. Fault
	// harnesses (internal/faultnet) inject in-memory dialers here.
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds each TCP dial when Dial is nil, and the
	// Hello→Welcome handshake of every connect (default 10s). An unbounded
	// dial or handshake would stall the epoch clock's EndEpoch loop for
	// the whole kernel timeout when the center's host drops off the
	// network, or forever against a center that accepts and never answers.
	DialTimeout time.Duration
	// RedialAttempts is how many connection attempts one Redial makes
	// before giving up (default 3). Attempts after the first are separated
	// by jittered exponential backoff starting at RedialBackoff (default
	// 200ms) and capped at RedialBackoffMax (default 2s), so a cluster of
	// points does not hammer a restarting center in lockstep.
	RedialAttempts   int
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// CheckpointDir, if set, enables crash-safe durability: the point
	// writes an atomic checkpoint (sketches, degradation accounting, and
	// the retransmit buffer) at every epoch boundary and restores the
	// newest intact one on the next DialPoint, so a crashed point rejoins
	// with its window instead of empty.
	CheckpointDir string
	// Shard is the center shard this point dials in a flow-sharded
	// deployment (0 in the flat one); it travels in the Hello so a
	// misrouted connection fails loudly instead of corrupting a shard.
	Shard int
	// DeltaUploads switches the size design to per-epoch delta uploads
	// (core.SizeModeDelta). Required when the point uploads through an
	// aggregation relay; the center must run the matching mode.
	DeltaUploads bool
	// WriteTimeout, when positive, bounds each upload or heartbeat write.
	// Against a half-open center (host vanished, socket never drains) an
	// unbounded write wedges EndEpoch forever; with the bound the write
	// fails with a timeout, the connection is closed, and the upload stays
	// buffered for retransmission after Redial. Zero = block forever.
	WriteTimeout time.Duration
	// HeartbeatEvery, when positive, sends a liveness probe (a Heartbeat
	// frame) on the connection at this interval so a server with a read
	// deadline can tell this idle-but-alive point from a dead one. Set it
	// to a fraction (a third or less) of the server's ReadTimeout. Zero
	// disables heartbeats.
	HeartbeatEvery time.Duration
}

// PointStats counts protocol events at a point.
type PointStats struct {
	// PushesApplied is the number of center pushes merged into C'/C.
	PushesApplied int64
	// PushesLate is the number of pushes that arrived after their target
	// epoch had already ended and were dropped (round-trip bound
	// violated).
	PushesLate int64
	// PushesDuplicate is the number of pushes dropped because the target
	// epoch's aggregate had already been merged (center re-push after a
	// reconnect that the point did not actually miss).
	PushesDuplicate int64
	// UploadsRetried is the number of epoch uploads whose first
	// transmission failed (connection down) and that were retransmitted
	// after a successful Redial.
	UploadsRetried int64
	// UploadsDropped is the number of buffered epoch uploads discarded
	// unsent because the retransmit buffer exceeded one window (the
	// center's sliding window can no longer use them).
	UploadsDropped int64
	// BackfillsApplied is the number of backfill pushes (Push.IntoCurrent)
	// merged into the query target after a restart.
	BackfillsApplied int64
	// CheckpointsWritten is the number of durable checkpoints written at
	// epoch boundaries.
	CheckpointsWritten int64
	// HeartbeatsSent is the number of liveness probes sent (0 unless
	// HeartbeatEvery is configured).
	HeartbeatsSent int64
	// WriteTimeouts is the number of writes abandoned because the
	// connection stopped draining (WriteTimeout expired); each one closes
	// the connection and leaves the upload buffered for retransmission.
	WriteTimeouts int64
	// Epoch is the point's current epoch and LastPushEpoch the newest
	// push ForEpoch the reader has processed (0 = none). Their difference
	// is the point's epoch lag: 0–1 on a healthy cluster, growing while
	// the center is unreachable. Health endpoints surface it.
	Epoch         int64
	LastPushEpoch int64
}

// PointClient is a measurement point connected to a live center. Record
// and Query are local operations; EndEpoch uploads to the center, and a
// background reader applies the center's pushes.
type PointClient struct {
	cfg PointConfig

	// mu guards the hop to the center (up) and needRebase; uploads and
	// redials serialize on it.
	mu sync.Mutex
	// up is the connection to the center (or a relay): the handshake, the
	// retransmit buffer, heartbeats and the redial schedule.
	up upstream
	// needRebase marks that the cumulative chain at the center no longer
	// matches this point's C lineage (restart, dropped uploads); the next
	// EndEpoch sends a rebase upload to reseed it.
	needRebase bool

	// eng is the design-erased protocol engine (see engine.go): the
	// generic core epoch engine behind byte-level sketch payloads.
	eng pointEngine

	// ckpt is the durable checkpoint store (nil when durability is
	// disabled).
	ckpt *durable.Store

	pushesApplied    atomic.Int64
	pushesLate       atomic.Int64
	pushesDup        atomic.Int64
	backfillsApplied atomic.Int64
	checkpoints      atomic.Int64

	// pushMu/pushCond let tests wait deterministically for the reader to
	// process pushes (WaitPushes) without sleep-polling.
	pushMu      sync.Mutex
	pushCond    *sync.Cond
	pushSeen    int64
	lastPushFor int64 // highest Push.ForEpoch processed (watchdog waits)
	closed      bool

	errMu   sync.Mutex
	ckptErr error // last checkpoint-write failure (nil after a success)
}

// DialPoint connects a new measurement point to the center. With
// PointConfig.CheckpointDir set, the newest intact checkpoint is restored
// first, so the point rejoins the cluster with the window, accounting and
// retransmit buffer it crashed with.
func DialPoint(cfg PointConfig) (*PointClient, error) {
	c := &PointClient{cfg: cfg}
	c.pushCond = sync.NewCond(&c.pushMu)
	c.up = upstream{
		id: cfg.Point, addr: cfg.Addr, dial: dialer(cfg.Dial, cfg.DialTimeout), dialTimeout: cfg.DialTimeout,
		wto: cfg.WriteTimeout, hbEvery: cfg.HeartbeatEvery,
		backoff: cfg.RedialBackoff, backoffMax: cfg.RedialBackoffMax, sleep: time.Sleep,
		hello: func() Hello {
			return Hello{Point: cfg.Point, Kind: cfg.Kind, W: cfg.W, StateEpoch: c.Epoch(), Shard: cfg.Shard}
		},
		welcomed:       c.applyWelcomeLocked,
		heartbeatEpoch: c.Epoch,
		push:           c.apply,
		mu:             &c.mu,
	}
	eng, err := newPointEngine(cfg)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	if cfg.CheckpointDir != "" {
		store, err := durable.Open(cfg.CheckpointDir, fmt.Sprintf("point-%d", cfg.Point))
		if err != nil {
			return nil, fmt.Errorf("transport: open checkpoint store: %w", err)
		}
		c.ckpt = store
		sections, gen, err := store.Load()
		switch {
		case errors.Is(err, durable.ErrNoCheckpoint):
			// Fresh start: nothing to restore.
		case err != nil:
			return nil, fmt.Errorf("transport: load point checkpoint: %w", err)
		default:
			if err := c.restoreCheckpoint(sections); err != nil {
				return nil, fmt.Errorf("transport: restore point checkpoint (generation %d): %w", gen, err)
			}
		}
	}
	// Connect and retransmit whatever a restored buffer still holds.
	if err := c.up.redial(1); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// applyWelcomeLocked resynchronizes the point with the center's view of
// the cluster: topology for Coverage accounting, the epoch clock after a
// restart, and — for the cumulative size design — whether the recovery
// chain at the center can still be extended by replaying the retransmit
// buffer (already requeued past Welcome.PointEpoch) or needs a rebase
// upload. Runs with c.mu held, as part of the handshake.
func (c *PointClient) applyWelcomeLocked(w Welcome) {
	advanced := false
	c.eng.SetTopology(w.Points, w.WindowN)
	if w.ResumeEpoch > c.eng.Epoch() {
		c.eng.AdvanceTo(w.ResumeEpoch)
		// The window the point held belongs to epochs the cluster has
		// moved past; merging it under the new epoch would double-count
		// against the backfill aggregate the center is about to send.
		c.eng.ResetWindow()
		advanced = true
	}
	if !c.eng.cumulative() {
		return
	}
	// The chain survives the outage only if the next upload the center will
	// see is exactly PointEpoch+1. A fast-forwarded epoch clock means the
	// local C never held the chain the center has; an unsent buffer whose
	// oldest entry is past PointEpoch+1 means epochs were lost.
	next := w.PointEpoch + 1
	oldest := c.eng.Epoch() // next upload's epoch when nothing is buffered
	for _, p := range c.up.pending {
		if !p.sent {
			oldest = p.up.Epoch
			break
		}
	}
	if advanced || oldest > next {
		c.needRebase = true
	}
}

// Redial reconnects to the center after a connection failure, preserving
// the point's local sketch state. The protocol resumes at the current
// epoch, and epoch uploads buffered while disconnected are retransmitted
// in order (counted by PointStats.UploadsRetried), so the center's window
// has no gaps for epochs that ended during the outage. Up to
// RedialAttempts connection attempts are made, separated by jittered
// exponential backoff (see PointConfig); the last attempt's error is
// returned if all fail.
func (c *PointClient) Redial() error {
	c.mu.Lock()
	conn, done := c.up.conn, c.up.done
	c.mu.Unlock()
	_ = conn.Close()
	<-done
	attempts := c.cfg.RedialAttempts
	if attempts < 1 {
		attempts = 3
	}
	return c.up.redial(attempts)
}

// Record inserts a packet. For the size design the element is ignored.
func (c *PointClient) Record(f, e uint64) { c.eng.Record(f, e) }

// RecordBatch inserts a batch of packets under one lock acquisition. For
// the size design each packet's element is ignored.
func (c *PointClient) RecordBatch(ps []core.SpreadPacket) { c.eng.RecordBatch(ps) }

// NewIngestPipe returns a private ingest lane for one worker goroutine, so
// concurrent workers never contend on a record-path lock. Create one pipe
// per ingest goroutine and Close it when the worker stops.
func (c *PointClient) NewIngestPipe() IngestPipe { return c.eng.newPipe() }

// QuerySpread answers a networkwide T-query (spread design only).
func (c *PointClient) QuerySpread(f uint64) (float64, error) {
	if c.cfg.Kind != KindSpread {
		return 0, errors.New("transport: point runs the size design")
	}
	return c.eng.Query(f), nil
}

// QuerySize answers a networkwide T-query (size design only). CountMin
// counters are exact integers well below 2^53, so the engine's
// float-valued answer converts back losslessly.
func (c *PointClient) QuerySize(f uint64) (int64, error) {
	if c.cfg.Kind != KindSize {
		return 0, errors.New("transport: point runs the spread design")
	}
	return int64(c.eng.Query(f)), nil
}

// QuerySpreadWithCoverage answers a networkwide spread T-query together
// with the Coverage of the window the answer was computed over, taken
// atomically with the estimate.
func (c *PointClient) QuerySpreadWithCoverage(f uint64) (float64, core.Coverage, error) {
	if c.cfg.Kind != KindSpread {
		return 0, core.Coverage{}, errors.New("transport: point runs the size design")
	}
	v, cov := c.eng.QueryWithCoverage(f)
	return v, cov, nil
}

// QuerySizeWithCoverage answers a networkwide size T-query together with
// the Coverage of the window the answer was computed over, taken
// atomically with the estimate.
func (c *PointClient) QuerySizeWithCoverage(f uint64) (int64, core.Coverage, error) {
	if c.cfg.Kind != KindSize {
		return 0, core.Coverage{}, errors.New("transport: point runs the spread design")
	}
	v, cov := c.eng.QueryWithCoverage(f)
	return int64(v), cov, nil
}

// Coverage reports the window coverage backing the point's current query
// answers (epochs merged into C versus a healthy window's worth).
func (c *PointClient) Coverage() core.Coverage { return c.eng.Coverage() }

// Epoch returns the point's current epoch.
func (c *PointClient) Epoch() int64 { return c.eng.Epoch() }

// EndEpoch rolls the point into the next epoch and uploads the completed
// epoch's measurement to the center. The local epoch always advances —
// wall-clock epochs do not stop for a dead connection — and the upload is
// buffered first, so a transmission failure leaves it queued for
// retransmission by the next successful Redial instead of dropping it. The
// returned error still reports a down connection.
func (c *PointClient) EndEpoch() error {
	rebase := false
	if c.eng.cumulative() {
		c.mu.Lock()
		rebase = c.needRebase
		c.needRebase = false
		c.mu.Unlock()
	}
	epoch, payload, meta, err := c.eng.endEpoch(rebase)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.up.pending = append(c.up.pending, pendingUpload{up: Upload{
		Point:      c.cfg.Point,
		Epoch:      epoch,
		Sketch:     payload,
		AggApplied: meta.AggApplied,
		EnhApplied: meta.EnhApplied,
		Rebase:     meta.Rebase,
	}})
	// Dropping an unsent upload breaks the cumulative size chain, so the
	// next upload after such a drop is a rebase.
	if c.up.capLocked() > 0 && c.eng.cumulative() {
		c.needRebase = true
	}
	// Checkpoint after the upload is buffered and before it is sent:
	// at-least-once across a crash (the center drops the duplicate
	// idempotently), never silently lost. Checkpoint failures degrade
	// durability, not liveness (see LastCheckpointErr).
	c.saveCheckpointLocked()
	if !c.up.live {
		c.up.markAttemptedLocked()
		return fmt.Errorf("transport: connection failed: %w", c.up.err)
	}
	return c.up.flushLocked()
}

// Stats returns protocol event counters.
func (c *PointClient) Stats() PointStats {
	c.pushMu.Lock()
	lastPush := c.lastPushFor
	c.pushMu.Unlock()
	return PointStats{
		Epoch:              c.eng.Epoch(),
		LastPushEpoch:      lastPush,
		PushesApplied:      c.pushesApplied.Load(),
		PushesLate:         c.pushesLate.Load(),
		PushesDuplicate:    c.pushesDup.Load(),
		UploadsRetried:     c.up.retried.Load(),
		UploadsDropped:     c.up.dropped.Load(),
		BackfillsApplied:   c.backfillsApplied.Load(),
		CheckpointsWritten: c.checkpoints.Load(),
		HeartbeatsSent:     c.up.hbSent.Load(),
		WriteTimeouts:      c.up.writeTimeouts.Load(),
	}
}

// LastCheckpointErr reports the most recent checkpoint-write failure (nil
// when the last write succeeded or durability is disabled). EndEpoch never
// fails on a checkpoint error — a broken disk must not stop measurement —
// so operators poll this to notice durability loss.
func (c *PointClient) LastCheckpointErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.ckptErr
}

// WaitPushes blocks until the reader has processed (merged or
// deliberately dropped) at least n pushes over the client's lifetime, or
// the client closes. It gives deterministic tests a synchronization point
// that needs no sleeping.
func (c *PointClient) WaitPushes(n int64) bool {
	return waitCond(c.pushCond, 0, func() bool { return c.closed }, func() bool { return c.pushSeen >= n })
}

// WaitPushEpoch blocks until the reader has processed a push whose
// ForEpoch is at least e, the timeout elapses, or the client closes.
// Unlike WaitPushes it needs no count of how many rounds a recovery
// replays — the watchdog primitive chaos schedules use: "this point saw
// the cluster reach epoch e, or it is wedged".
func (c *PointClient) WaitPushEpoch(e int64, timeout time.Duration) bool {
	return waitCond(c.pushCond, timeout, func() bool { return c.closed }, func() bool { return c.lastPushFor >= e })
}

// Close drops the connection.
func (c *PointClient) Close() error {
	err := c.up.close()
	c.up.wg.Wait()
	c.pushMu.Lock()
	c.closed = true
	c.pushCond.Broadcast()
	c.pushMu.Unlock()
	return err
}

// apply merges one push. Pushes that miss their epoch are dropped: merging
// a stale aggregate into the wrong epoch's C' would corrupt the window.
// The epoch check happens under the point's lock (ApplyAggregateAt), so a
// concurrent EndEpoch cannot slip between check and merge. Backfill pushes
// (IntoCurrent) go straight into the query target C, rebuilding the window
// a restart lost.
func (c *PointClient) apply(push Push) error {
	var err error
	if push.IntoCurrent {
		if len(push.Aggregate) > 0 {
			err = c.eng.applyBackfill(push.ForEpoch, push.Aggregate, push.CovMerged)
		}
		switch {
		case errors.Is(err, core.ErrStaleEpoch):
			c.pushesLate.Add(1)
		case errors.Is(err, core.ErrDuplicatePush):
			c.pushesDup.Add(1)
		case err != nil:
			return err
		default:
			c.backfillsApplied.Add(1)
		}
		c.notePush(push.ForEpoch)
		return nil
	}
	if len(push.Aggregate) > 0 {
		err = c.eng.applyAggregate(push.ForEpoch, push.Aggregate, push.CovMerged)
	}
	if err == nil && len(push.Enhancement) > 0 {
		err = c.eng.applyEnhancement(push.ForEpoch, push.Enhancement)
	}
	switch {
	case errors.Is(err, core.ErrStaleEpoch):
		c.pushesLate.Add(1)
	case errors.Is(err, core.ErrDuplicatePush):
		c.pushesDup.Add(1)
	case err != nil:
		return err
	default:
		c.pushesApplied.Add(1)
	}
	c.notePush(push.ForEpoch)
	return nil
}

// notePush records one processed push for the Wait* helpers.
func (c *PointClient) notePush(forEpoch int64) {
	c.pushMu.Lock()
	c.pushSeen++
	if forEpoch > c.lastPushFor {
		c.lastPushFor = forEpoch
	}
	c.pushCond.Broadcast()
	c.pushMu.Unlock()
}
