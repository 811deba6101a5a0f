package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
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
	// Sketch selects the spread design's sketch backend: SketchRskt (the
	// default, also "") or SketchVhll. The choice never travels on the
	// wire — the center must be configured with the same backend.
	Sketch string
	// W, M, D, Seed are the sketch parameters (matching the center). For
	// the vHLL backend W is the physical register count and M the virtual
	// (per-flow) estimator size.
	W, M, D int
	Seed    uint64
	// Dial, if set, replaces net.Dial for reaching the center. Fault
	// harnesses (internal/faultnet) inject in-memory dialers here.
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds each TCP dial when Dial is nil (default 10s). An
	// unbounded dial would stall the epoch clock's EndEpoch loop for the
	// whole kernel timeout when the center's host drops off the network.
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
	// HeartbeatEvery, when positive, sends a liveness probe
	// (Upload.Heartbeat) on the connection at this interval so a server
	// with a read deadline can tell this idle-but-alive point from a dead
	// one. Set it to a fraction (a third or less) of the server's
	// ReadTimeout. Zero disables heartbeats — required against servers
	// built before the heartbeat frame, which would try to ingest it.
	HeartbeatEvery time.Duration
	// forceLegacyCodec pins the point to CodecLegacy regardless of what
	// the center offers. Test hook standing in for a pre-codec binary.
	forceLegacyCodec bool
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

	// mu guards the connection fields and the pending-upload buffer;
	// uploads and redials serialize on it.
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	done chan struct{}
	// pending holds the last window of epoch uploads: EndEpoch appends
	// here first, then drains the unsent entries over the live
	// connection. Uploads whose transmission failed stay unsent and are
	// retransmitted after Redial, so epochs that end while the center is
	// unreachable are not silently lost. Entries that were sent are
	// retained (sent=true) instead of discarded: if a restarted center
	// restores a checkpoint that predates them, the Welcome handshake
	// requeues exactly the epochs the center lost. The buffer is capped at
	// one window (n epochs): anything older falls outside every live
	// ST-join, so retaining it only wastes memory.
	pending []pendingUpload
	// windowN and points arrive in the center's Welcome.
	windowN int
	points  int
	// needRebase marks that the cumulative chain at the center no longer
	// matches this point's C lineage (restart, dropped uploads); the next
	// EndEpoch sends a rebase upload to reseed it.
	needRebase bool
	// codec is the sketch-payload codec negotiated with the center in the
	// last Hello↔Welcome handshake (atomic: EndEpoch reads it without the
	// connection lock, a Redial may renegotiate concurrently).
	codec atomic.Int32

	// eng is the design-erased protocol engine (see engine.go): the
	// generic core epoch engine behind the design's wire codec.
	eng pointEngine

	// ckpt is the durable checkpoint store (nil when durability is
	// disabled); sleep is the backoff delay hook (time.Sleep outside
	// tests).
	ckpt  *durable.Store
	sleep func(time.Duration)

	pushesApplied    atomic.Int64
	pushesLate       atomic.Int64
	pushesDup        atomic.Int64
	uploadsRetried   atomic.Int64
	uploadsDropped   atomic.Int64
	backfillsApplied atomic.Int64
	checkpoints      atomic.Int64
	heartbeatsSent   atomic.Int64
	writeTimeouts    atomic.Int64

	// pushMu/pushCond let tests wait deterministically for the reader to
	// process pushes (WaitPushes) without sleep-polling.
	pushMu      sync.Mutex
	pushCond    *sync.Cond
	pushSeen    int64
	lastPushFor int64 // highest Push.ForEpoch processed (watchdog waits)
	closed      bool

	errMu   sync.Mutex
	lastErr error
	ckptErr error // last checkpoint-write failure (nil after a success)
}

// pendingUpload is a buffered epoch upload. attempted marks uploads whose
// first transmission failed (or that were buffered while disconnected);
// sending one after reconnect counts as a retry. sent marks uploads the
// encoder accepted; they stay buffered as history for center-restart
// requeues until the window slides past them.
type pendingUpload struct {
	up        Upload
	attempted bool
	sent      bool
}

// DialPoint connects a new measurement point to the center. With
// PointConfig.CheckpointDir set, the newest intact checkpoint is restored
// first, so the point rejoins the cluster with the window, accounting and
// retransmit buffer it crashed with.
func DialPoint(cfg PointConfig) (*PointClient, error) {
	c := &PointClient{cfg: cfg, sleep: time.Sleep}
	c.pushCond = sync.NewCond(&c.pushMu)
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
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials the center, performs the Hello↔Welcome handshake and
// starts a reader. Callers must not hold c.mu.
func (c *PointClient) connect() error {
	dial := c.cfg.Dial
	if dial == nil {
		timeout := effectiveDialTimeout(c.cfg.DialTimeout)
		dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	conn, err := dial(c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("transport: dial center: %w", err)
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(Hello{
		Point: c.cfg.Point, Kind: c.cfg.Kind, W: c.cfg.W,
		StateEpoch: c.Epoch(), Codec: c.ownCodec(),
		Shard: c.cfg.Shard,
	}); err != nil {
		conn.Close()
		return fmt.Errorf("transport: send hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	var welcome Welcome
	if err := dec.Decode(&welcome); err != nil {
		conn.Close()
		return fmt.Errorf("transport: receive welcome: %w", err)
	}
	c.applyWelcome(welcome)
	done := make(chan struct{})
	c.mu.Lock()
	c.conn = conn
	c.enc = enc
	c.done = done
	c.mu.Unlock()
	c.setErr(nil)
	go c.readLoop(dec, done)
	if hb := c.cfg.HeartbeatEvery; hb > 0 {
		go c.heartbeatLoop(conn, done, hb)
	}
	// Retransmit epoch uploads buffered while disconnected, oldest
	// first, so the center's window stays gap-free.
	c.mu.Lock()
	flushErr := c.flushPendingLocked()
	c.mu.Unlock()
	return flushErr
}

// effectiveDialTimeout maps PointConfig.DialTimeout to the bound actually
// applied to raw TCP dials (default 10s; the config value wins when set).
func effectiveDialTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return 10 * time.Second
	}
	return d
}

// heartbeatLoop sends liveness probes on one connection until it dies.
// Probes share the upload encoder under c.mu, so they interleave cleanly
// with EndEpoch; a probe that fails (connection lost, or the write timed
// out against a half-open server) stops the loop — the regular error and
// redial machinery owns recovery.
func (c *PointClient) heartbeatLoop(conn net.Conn, done chan struct{}, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.conn != conn {
			c.mu.Unlock()
			return
		}
		err := c.encodeLocked(Upload{Point: c.cfg.Point, Epoch: c.eng.epoch(), Heartbeat: true})
		c.mu.Unlock()
		if err != nil {
			if isWedged(err) {
				c.writeTimeouts.Add(1)
				_ = conn.Close()
			}
			return
		}
		c.heartbeatsSent.Add(1)
	}
}

// encodeLocked encodes one frame on the live connection, bounded by
// WriteTimeout when configured. Callers must hold c.mu.
func (c *PointClient) encodeLocked(v any) error {
	if wto := c.cfg.WriteTimeout; wto > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(wto))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	return c.enc.Encode(v)
}

// applyWelcome resynchronizes the point with the center's view of the
// cluster: topology for Coverage accounting, the epoch clock after a
// restart, and — for the cumulative size design — whether the recovery
// chain at the center can still be extended by replaying the retransmit
// buffer or needs a rebase upload.
// ownCodec is the highest payload codec this point advertises.
func (c *PointClient) ownCodec() int {
	if c.cfg.forceLegacyCodec {
		return CodecLegacy
	}
	return CodecPacked
}

func (c *PointClient) applyWelcome(w Welcome) {
	// Adopt the center's codec choice, never exceeding our own ceiling (a
	// hostile or buggy center must not push us onto a codec we did not
	// offer). Old centers leave Welcome.Codec zero = legacy.
	c.codec.Store(int32(negotiateCodec(w.Codec, c.ownCodec())))
	advanced := false
	c.eng.setTopology(w.Points, w.WindowN)
	if w.ResumeEpoch > c.eng.epoch() {
		c.eng.advanceTo(w.ResumeEpoch)
		// The window the point held belongs to epochs the cluster has
		// moved past; merging it under the new epoch would double-count
		// against the backfill aggregate the center is about to send.
		c.eng.resetWindow()
		advanced = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.windowN = w.WindowN
	c.points = w.Points
	// Requeue sent history the center no longer has: a center that
	// restored an old checkpoint reports the PointEpoch it actually holds,
	// and everything after it must be uploaded again (idempotent at the
	// center if the restore turns out fresher than advertised).
	for i := range c.pending {
		if c.pending[i].sent && c.pending[i].up.Epoch > w.PointEpoch {
			c.pending[i].sent = false
			c.pending[i].attempted = true
		}
	}
	if !c.eng.cumulative() {
		return
	}
	// The chain survives the outage only if the next upload the center will
	// see is exactly PointEpoch+1. A fast-forwarded epoch clock means the
	// local C never held the chain the center has; an unsent buffer whose
	// oldest entry is past PointEpoch+1 means epochs were lost.
	next := w.PointEpoch + 1
	oldest := c.eng.epoch() // next upload's epoch when nothing is buffered
	for i := range c.pending {
		if !c.pending[i].sent {
			oldest = c.pending[i].up.Epoch
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
	conn, done := c.conn, c.done
	c.mu.Unlock()
	_ = conn.Close()
	<-done
	attempts := c.cfg.RedialAttempts
	if attempts < 1 {
		attempts = 3
	}
	backoff := c.cfg.RedialBackoff
	if backoff <= 0 {
		backoff = 200 * time.Millisecond
	}
	maxBackoff := c.cfg.RedialBackoffMax
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// Full jitter over [backoff/2, backoff]: points knocked out by
			// the same center restart spread their retries instead of
			// redialing in lockstep.
			delay := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			c.sleep(delay)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if err = c.connect(); err == nil {
			return nil
		}
	}
	return err
}

func (c *PointClient) setErr(err error) {
	c.errMu.Lock()
	c.lastErr = err
	c.errMu.Unlock()
}

func (c *PointClient) getErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.lastErr
}

// Record inserts a packet. For the size design the element is ignored.
func (c *PointClient) Record(f, e uint64) { c.eng.record(f, e) }

// RecordBatch inserts a batch of packets under one lock acquisition. For
// the size design each packet's element is ignored.
func (c *PointClient) RecordBatch(ps []core.SpreadPacket) { c.eng.recordBatch(ps) }

// NewIngestPipe returns a private ingest lane for one worker goroutine, so
// concurrent workers never contend on a record-path lock. Create one pipe
// per ingest goroutine and Close it when the worker stops.
func (c *PointClient) NewIngestPipe() IngestPipe { return c.eng.newPipe() }

// QuerySpread answers a networkwide T-query (spread design only).
func (c *PointClient) QuerySpread(f uint64) (float64, error) {
	if c.cfg.Kind != KindSpread {
		return 0, errors.New("transport: point runs the size design")
	}
	return c.eng.query(f), nil
}

// QuerySize answers a networkwide T-query (size design only). CountMin
// counters are exact integers well below 2^53, so the engine's
// float-valued answer converts back losslessly.
func (c *PointClient) QuerySize(f uint64) (int64, error) {
	if c.cfg.Kind != KindSize {
		return 0, errors.New("transport: point runs the spread design")
	}
	return int64(c.eng.query(f)), nil
}

// QuerySpreadWithCoverage answers a networkwide spread T-query together
// with the Coverage of the window the answer was computed over, taken
// atomically with the estimate.
func (c *PointClient) QuerySpreadWithCoverage(f uint64) (float64, core.Coverage, error) {
	if c.cfg.Kind != KindSpread {
		return 0, core.Coverage{}, errors.New("transport: point runs the size design")
	}
	v, cov := c.eng.queryCov(f)
	return v, cov, nil
}

// QuerySizeWithCoverage answers a networkwide size T-query together with
// the Coverage of the window the answer was computed over, taken
// atomically with the estimate.
func (c *PointClient) QuerySizeWithCoverage(f uint64) (int64, core.Coverage, error) {
	if c.cfg.Kind != KindSize {
		return 0, core.Coverage{}, errors.New("transport: point runs the spread design")
	}
	v, cov := c.eng.queryCov(f)
	return int64(v), cov, nil
}

// Coverage reports the window coverage backing the point's current query
// answers (epochs merged into C versus a healthy window's worth).
func (c *PointClient) Coverage() core.Coverage { return c.eng.coverage() }

// Epoch returns the point's current epoch.
func (c *PointClient) Epoch() int64 { return c.eng.epoch() }

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
	// A payload marshaled compact stays valid across a redial downgrade:
	// decoders dispatch on the sketch magic, so buffered compact uploads
	// retransmitted on a legacy-negotiated connection still decode.
	epoch, payload, meta, err := c.eng.endEpoch(rebase, c.codec.Load() >= CodecPacked)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = append(c.pending, pendingUpload{up: Upload{
		Point:      c.cfg.Point,
		Epoch:      epoch,
		Sketch:     payload,
		AggApplied: meta.AggApplied,
		EnhApplied: meta.EnhApplied,
		Rebase:     meta.Rebase,
	}})
	c.capPendingLocked()
	// Checkpoint after the upload is buffered and before it is sent:
	// at-least-once across a crash (the center drops the duplicate
	// idempotently), never silently lost. Checkpoint failures degrade
	// durability, not liveness (see LastCheckpointErr).
	c.saveCheckpointLocked()
	if err := c.getErr(); err != nil {
		c.markPendingAttemptedLocked()
		return fmt.Errorf("transport: connection failed: %w", err)
	}
	return c.flushPendingLocked()
}

// capPendingLocked bounds the upload buffer (unsent retransmits plus sent
// history) at one window of epochs. Once the window has slid past an
// upload, no live ST-join can use it, so retaining more than n epochs only
// delays memory reclamation without improving recovery. Dropping an
// UNSENT upload loses a measurement (counted, and it breaks the
// cumulative size chain, so the next upload after such a drop is a
// rebase); dropping sent history is free. Callers must hold c.mu.
func (c *PointClient) capPendingLocked() {
	capN := c.windowN
	if capN <= 0 || len(c.pending) <= capN {
		return
	}
	drop := len(c.pending) - capN
	unsent := 0
	for _, p := range c.pending[:drop] {
		if !p.sent {
			unsent++
		}
	}
	if unsent > 0 {
		c.uploadsDropped.Add(int64(unsent))
		if c.eng.cumulative() {
			c.needRebase = true
		}
	}
	c.pending = append(c.pending[:0], c.pending[drop:]...)
}

// flushPendingLocked sends the buffer's unsent uploads over the live
// connection, oldest first, keeping them as sent history afterwards. On an
// encode failure the remaining unsent uploads stay and are marked
// attempted. Callers must hold c.mu.
func (c *PointClient) flushPendingLocked() error {
	for i := range c.pending {
		p := &c.pending[i]
		if p.sent {
			continue
		}
		if err := c.encodeLocked(p.up); err != nil {
			c.markPendingAttemptedLocked()
			if isWedged(err) {
				// The center stopped draining (half-open peer): the encoder
				// is poisoned mid-frame, so the connection is dead weight.
				// Close it — the reader unblocks, the upload stays buffered,
				// and the next Redial retransmits it.
				c.writeTimeouts.Add(1)
				_ = c.conn.Close()
			}
			return fmt.Errorf("transport: upload epoch %d: %w", p.up.Epoch, err)
		}
		if p.attempted {
			c.uploadsRetried.Add(1)
		}
		p.sent = true
	}
	return nil
}

// markPendingAttemptedLocked records that every unsent buffered upload has
// missed at least one transmission window. Callers must hold c.mu.
func (c *PointClient) markPendingAttemptedLocked() {
	for i := range c.pending {
		if !c.pending[i].sent {
			c.pending[i].attempted = true
		}
	}
}

// Stats returns protocol event counters.
func (c *PointClient) Stats() PointStats {
	c.pushMu.Lock()
	lastPush := c.lastPushFor
	c.pushMu.Unlock()
	return PointStats{
		Epoch:              c.eng.epoch(),
		LastPushEpoch:      lastPush,
		PushesApplied:      c.pushesApplied.Load(),
		PushesLate:         c.pushesLate.Load(),
		PushesDuplicate:    c.pushesDup.Load(),
		UploadsRetried:     c.uploadsRetried.Load(),
		UploadsDropped:     c.uploadsDropped.Load(),
		BackfillsApplied:   c.backfillsApplied.Load(),
		CheckpointsWritten: c.checkpoints.Load(),
		HeartbeatsSent:     c.heartbeatsSent.Load(),
		WriteTimeouts:      c.writeTimeouts.Load(),
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
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	for c.pushSeen < n && !c.closed {
		c.pushCond.Wait()
	}
	return c.pushSeen >= n
}

// WaitPushEpoch blocks until the reader has processed a push whose
// ForEpoch is at least e, the timeout elapses, or the client closes.
// Unlike WaitPushes it needs no count of how many rounds a recovery
// replays — the watchdog primitive chaos schedules use: "this point saw
// the cluster reach epoch e, or it is wedged".
func (c *PointClient) WaitPushEpoch(e int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		c.pushMu.Lock()
		c.pushCond.Broadcast()
		c.pushMu.Unlock()
	})
	defer timer.Stop()
	c.pushMu.Lock()
	defer c.pushMu.Unlock()
	for c.lastPushFor < e && !c.closed && time.Now().Before(deadline) {
		c.pushCond.Wait()
	}
	return c.lastPushFor >= e
}

// Close drops the connection.
func (c *PointClient) Close() error {
	c.mu.Lock()
	conn, done := c.conn, c.done
	c.mu.Unlock()
	err := conn.Close()
	<-done
	c.pushMu.Lock()
	c.closed = true
	c.pushCond.Broadcast()
	c.pushMu.Unlock()
	return err
}

// readLoop consumes the connection's decoder (already past the Welcome).
func (c *PointClient) readLoop(dec *gob.Decoder, done chan struct{}) {
	defer close(done)
	for {
		var push Push
		if err := dec.Decode(&push); err != nil {
			c.setErr(err)
			return
		}
		if err := c.apply(push); err != nil {
			c.setErr(err)
			return
		}
	}
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
