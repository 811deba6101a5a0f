package transport

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
)

// CenterConfig describes a live measurement-center deployment. The
// topology (point ids and widths) is declared up front; points must
// connect with matching Hello messages.
type CenterConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Listener, if set, is used instead of listening on Addr. Fault
	// harnesses (internal/faultnet) inject in-memory listeners here.
	Listener net.Listener
	// Kind selects the size or spread design.
	Kind Kind
	// WindowN is the paper's n.
	WindowN int
	// Widths maps point id to sketch width.
	// In a tree deployment the ids are the center's DIRECT children —
	// leaf points and aggregation relays alike.
	Widths map[int]int
	// Weights maps a direct child to the number of leaf points one upload
	// from it represents: omit (or 1) for plain points, the subtree's leaf
	// count for a relay. Drives coverage accounting and the Welcome's
	// cluster size; the child's Hello.Weight must match.
	Weights map[int]int
	// Shard is this center's shard index in a flow-sharded deployment
	// (0/absent in the flat one). Connections advertising a different
	// Hello.Shard are rejected — shards share sketch parameters, so a
	// misrouted point would otherwise corrupt this shard silently.
	Shard int
	// DeltaUploads switches the size design to per-epoch delta uploads
	// (core.SizeModeDelta) instead of the paper's cumulative chain.
	// Required on any center fed through relays: relays pre-merge their
	// children's epochs, and cumulative sketches cannot be pre-merged.
	// Points must be dialed with the matching PointConfig.DeltaUploads.
	DeltaUploads bool
	// M is the HLL register count (spread; 0 = hll default handled by
	// caller).
	M int
	// D is the CountMin depth (size).
	D int
	// Seed is the cluster-wide hash seed.
	Seed uint64
	// Enhance enables pushing the Section IV-D enhancement.
	Enhance bool
	// CheckpointDir, if set, enables crash-safe durability: the center
	// writes an atomic checkpoint of its window store at epoch boundaries
	// (internal/durable, last two generations retained) and restores the
	// newest intact one on startup, resuming pushes and re-accepting
	// uploads idempotently where it left off.
	CheckpointDir string
	// CheckpointEvery is the number of push rounds between checkpoints
	// (default 1: every round). Larger values trade recovery freshness for
	// write amplification.
	CheckpointEvery int
	// StoreDir, if set, enables the time-indexed epoch-log store: every
	// accepted upload's single-epoch cell, and each closed epoch's merged
	// partial, is appended to a durable append-only log
	// (internal/durable.Log), from which the center replays retrospective
	// T-queries (HistoryAt/HistoryRange and the historical-query RPC)
	// over windows the live store has long trimmed.
	// Independent of CheckpointDir, though deployments typically point
	// both at the same directory.
	StoreDir string
	// RetainEpochs bounds the store's history: sealed segments whose
	// newest epoch is more than RetainEpochs behind the log head are
	// compacted away. Zero retains everything (subject to StoreMaxBytes).
	RetainEpochs int
	// StoreMaxBytes bounds the store's size, evicting oldest sealed
	// segments first. Zero = unbounded.
	StoreMaxBytes int64
	// StoreSegmentBytes is the segment-roll threshold (0 = the durable
	// package default).
	StoreSegmentBytes int64
	// ReplayCacheBytes budgets the historical-replay cache (per-epoch
	// partials, kept as their partial cells' bytes or decoded; see
	// core.ReplayCache), which makes warm repeated HistoryAt queries
	// in-memory and sliding HistoryRange sweeps O(1 new epoch) per step.
	// Each partial is charged the bytes it holds: 64 bytes, 8 per joined
	// id, and its cell's bytes or its decoded sketch's heap. Zero picks
	// a default (64 MiB) whenever the store is enabled; negative disables
	// caching. A cached partial is served only while the ids it joined
	// equal the cells the store holds for its epoch, so cached answers
	// stay bit-identical to a cold replay.
	ReplayCacheBytes int64
	// HistoryAddr, if set, serves the query RPC (live, coverage, and
	// historical forms) on this TCP address; tqquery -at/-range dials it
	// directly or through a relay's history proxy.
	HistoryAddr string
	// Logf, if set, receives diagnostic messages (defaults to log.Printf).
	Logf func(format string, args ...any)
	// ReadTimeout, when positive, bounds how long the center waits for the
	// next frame from a child before evicting it as half-open (the read
	// deadline is re-armed before every decode). A child that is idle
	// between epochs stays admitted only if it sends heartbeats faster
	// than this bound (PointConfig.HeartbeatEvery); set ReadTimeout to
	// several heartbeat intervals. Zero keeps the pre-liveness behavior:
	// block forever, trust the peer.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each push write. A child that
	// stopped draining (half-open peer, wedged reader) times the write out
	// and is evicted instead of wedging the push round behind its dead
	// socket. Zero = block forever.
	WriteTimeout time.Duration
}

// defaultReplayCacheBytes is the replay-cache budget when the store is
// enabled and CenterConfig.ReplayCacheBytes is zero.
const defaultReplayCacheBytes = 64 << 20

// CenterServer is a running measurement center: the child-facing half
// (downstream) over the window store and the epoch log.
type CenterServer struct {
	downstream
	cfg CenterConfig

	// eng is the design-erased protocol engine (see engine.go).
	eng centerEngine

	store   *durable.Log // nil when the epoch-log store is disabled
	histSrv *QueryServer // nil unless HistoryAddr is set

	// Guarded by mu.
	gaps           int64
	cellAppends    int64 // point cells appended to the epoch log
	partialAppends int64 // partial cells appended to the epoch log
	storeErrs      int64 // epoch-log append failures (never fatal)

	// failAppend, when set, fails the epoch-log appends it matches before
	// they reach the store (fault-injection tests).
	failAppend atomic.Pointer[func(point int, epoch int64) bool]
}

// partialCell is the epoch log's reserved point id: the cell stored under
// it for epoch e is e's merged partial (appendPartial), never a child's
// measurement, so ServeCenter rejects a topology that names it.
const partialCell = math.MaxUint32

// ServeCenter starts a measurement center listening on cfg.Addr. The
// returned server runs until Close.
func ServeCenter(cfg CenterConfig) (*CenterServer, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if _, ok := cfg.Widths[partialCell]; ok {
		return nil, fmt.Errorf("transport: point id %d is reserved for the epoch log's partial cells", partialCell)
	}
	eng, err := newCenterEngine(cfg)
	if err != nil {
		return nil, err
	}
	for id, w := range cfg.Weights {
		if _, ok := cfg.Widths[id]; !ok {
			return nil, fmt.Errorf("transport: weight for unknown point %d", id)
		}
		eng.SetWeight(id, w)
	}
	s := &CenterServer{cfg: cfg, eng: eng}
	s.downstream = downstream{
		role: "center", kind: cfg.Kind, shard: cfg.Shard,
		widths: cfg.Widths, weights: cfg.Weights,
		readTimeout: cfg.ReadTimeout, writeTimeout: cfg.WriteTimeout, logf: cfg.Logf,
		welcome: s.welcomeFor,
		pushFor: func(c *childConn, forEpoch int64) (Push, bool, error) {
			p, err := s.eng.buildPush(c.id, forEpoch, cfg.Enhance)
			return p, true, err
		},
		ingest:   s.ingest,
		snapshot: s.snapshot,
	}
	s.init(cfg.CheckpointEvery)
	if cfg.CheckpointDir != "" {
		if err := s.openCheckpoint(cfg.CheckpointDir, "center", s.restoreCheckpoint); err != nil {
			return nil, err
		}
		if s.restoredGen > 0 {
			// Rounds the restored state had completed but not pushed fire
			// now, so the first reconnecting points find lastPush current.
			for e := max(s.lastPush, 1); e <= s.eng.MaxEpoch(); e++ {
				if s.eng.Complete(e) {
					s.pushRound(e+1, nil)
				}
			}
		}
	}
	if cfg.StoreDir != "" {
		store, err := durable.OpenLog(durable.LogConfig{
			Dir:             cfg.StoreDir,
			RetainEpochs:    cfg.RetainEpochs,
			MaxBytes:        cfg.StoreMaxBytes,
			MaxSegmentBytes: cfg.StoreSegmentBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("transport: open epoch-log store: %w", err)
		}
		s.store = store
		if s.restoredGen > 0 {
			s.appendRestored()
		}
		if budget := cfg.ReplayCacheBytes; budget >= 0 {
			if budget == 0 {
				budget = defaultReplayCacheBytes
			}
			s.eng.EnableReplayCache(budget)
		}
	}
	if cfg.HistoryAddr != "" {
		hs, err := ServeQueriesHist(cfg.HistoryAddr, s.liveAnswer, HistoryHandler{
			At:    s.HistoryAt,
			Range: s.HistoryRange,
			Logf:  cfg.Logf,
		})
		if err != nil {
			if s.store != nil {
				_ = s.store.Close()
			}
			return nil, err
		}
		s.histSrv = hs
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", cfg.Addr); err != nil {
			if s.histSrv != nil {
				_ = s.histSrv.Close()
			}
			if s.store != nil {
				_ = s.store.Close()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
	}
	s.serve(ln)
	return s, nil
}

// CenterStats counts protocol activity at the center.
type CenterStats struct {
	// ConnectedPoints is the number of live point connections.
	ConnectedPoints int
	// UploadsReceived is the total sketch uploads ingested.
	UploadsReceived int64
	// RoundsPushed is the number of completed ST-join rounds pushed out.
	RoundsPushed int64
	// UploadsDuplicate counts retransmitted uploads dropped idempotently.
	UploadsDuplicate int64
	// UploadsGap counts cumulative-mode uploads dropped after an epoch
	// gap, pending a rebase (core.ErrUploadGap).
	UploadsGap int64
	// Repushes counts current-round pushes re-sent to reconnecting points.
	Repushes int64
	// Backfills counts backfill exchanges run for state-behind points
	// (Push.IntoCurrent sent on reconnect).
	Backfills int64
	// CheckpointsWritten counts durable checkpoints written successfully.
	CheckpointsWritten int64
	// RestoredGeneration is the checkpoint generation restored at startup
	// (0 = started fresh).
	RestoredGeneration uint64
	// HeartbeatsReceived counts liveness probes (Heartbeat frames)
	// accepted from children.
	HeartbeatsReceived int64
	// Evictions counts connections dropped because a deadline expired —
	// a half-open or wedged peer detected by ReadTimeout/WriteTimeout.
	Evictions int64
	// LastPushEpoch is the most recent round's ForEpoch (0 = none yet).
	LastPushEpoch int64
	// LastRoundAt is when the most recent round was pushed (zero = never);
	// health endpoints surface it as the last-merge age.
	LastRoundAt time.Time
	// StoreEnabled reports whether the epoch-log store is configured.
	StoreEnabled bool
	// StoreAppends counts point cells appended to the epoch log.
	StoreAppends int64
	// StorePartialAppends counts partial cells appended to the epoch log:
	// one per closed epoch, each that epoch's merged partial.
	StorePartialAppends int64
	// StoreAppendErrors counts failed appends of either kind (logged,
	// never fatal: the live pipeline outlives its history).
	StoreAppendErrors int64
	// ReplayEpochsFromPartial / ReplayEpochsFromCells count the cold
	// epochs historical queries replayed from the log, split by whether
	// the epoch's partial cell answered or its point cells were joined.
	ReplayEpochsFromPartial int64
	ReplayEpochsFromCells   int64
	// StoreBytes / StoreSegments / StoreEntries describe the log's
	// on-disk footprint.
	StoreBytes    int64
	StoreSegments int
	StoreEntries  int
	// StoreFirstEpoch / StoreLastEpoch span the retained history (0/0
	// when empty) — the range retrospective queries can fully answer.
	StoreFirstEpoch int64
	StoreLastEpoch  int64
	// StoreCompactions / StoreCompactionErrors count retention passes.
	StoreCompactions      int64
	StoreCompactionErrors int64
	// StoreLastCompaction is when retention last evicted a segment
	// (zero = never); health endpoints surface it as an age.
	StoreLastCompaction time.Time
	// ReplayCacheEnabled reports whether the historical-replay cache is
	// attached; the remaining ReplayCache* fields mirror
	// core.ReplayCacheStats (partial hits/misses, budget evictions,
	// footprint).
	ReplayCacheEnabled   bool
	ReplayCacheHits      int64
	ReplayCacheMisses    int64
	ReplayCacheEvictions int64
	ReplayCacheBytes     int64
	ReplayCacheEntries   int
	ReplayCacheBudget    int64
}

// Stats returns a snapshot of the center's counters.
func (s *CenterServer) Stats() CenterStats {
	s.mu.Lock()
	st := CenterStats{
		ConnectedPoints:     len(s.conns),
		UploadsReceived:     s.uploads,
		RoundsPushed:        s.rounds,
		UploadsDuplicate:    s.dups,
		UploadsGap:          s.gaps,
		Repushes:            s.repushes,
		Backfills:           s.backfills,
		CheckpointsWritten:  s.checkpoints,
		RestoredGeneration:  s.restoredGen,
		HeartbeatsReceived:  s.heartbeats,
		Evictions:           s.evictions,
		StoreAppends:        s.cellAppends,
		StorePartialAppends: s.partialAppends,
		StoreAppendErrors:   s.storeErrs,
		LastPushEpoch:       s.pushed,
		LastRoundAt:         s.lastRoundAt,
	}
	s.mu.Unlock()
	st.ReplayEpochsFromPartial, st.ReplayEpochsFromCells = s.eng.replayReads()
	if s.store != nil {
		ls := s.store.Stats()
		st.StoreEnabled = true
		st.StoreBytes = ls.Bytes
		st.StoreSegments = ls.Segments
		st.StoreEntries = ls.Entries
		st.StoreFirstEpoch, st.StoreLastEpoch = s.eng.storeSpan(s.store)
		st.StoreCompactions = int64(ls.Compactions)
		st.StoreCompactionErrors = int64(ls.CompactionErrors)
		st.StoreLastCompaction = ls.LastCompaction
	}
	if rs, ok := s.eng.ReplayCacheStats(); ok {
		st.ReplayCacheEnabled = true
		st.ReplayCacheHits = int64(rs.Hits)
		st.ReplayCacheMisses = int64(rs.Misses)
		st.ReplayCacheEvictions = int64(rs.Evictions)
		st.ReplayCacheBytes = rs.Bytes
		st.ReplayCacheEntries = rs.Entries
		st.ReplayCacheBudget = rs.Budget
	}
	return st
}

// errNoStore is returned by historical queries on a center running
// without an epoch-log store.
var errNoStore = errors.New("transport: center has no epoch-log store (StoreDir unset)")

// HistoryAt replays the networkwide T-query answer as of past epoch k
// from the epoch-log store — bit-identical to the live answer recorded
// at k when the window is fully retained, reduced Coverage otherwise.
func (s *CenterServer) HistoryAt(f uint64, k int64) (float64, core.Coverage, error) {
	if s.store == nil {
		return 0, core.Coverage{}, errNoStore
	}
	return s.eng.historyAt(f, k, s.store)
}

// HistoryRange replays the join over the arbitrary epoch range
// [from, to] from the epoch-log store.
func (s *CenterServer) HistoryRange(f uint64, from, to int64) (float64, core.Coverage, error) {
	if s.store == nil {
		return 0, core.Coverage{}, errNoStore
	}
	return s.eng.historyRange(f, from, to, s.store)
}

// QueryWindowLive answers the T-query from the live in-memory window as
// of epoch k — the reference the historical replay's exactness contract
// is defined against.
func (s *CenterServer) QueryWindowLive(f uint64, k int64) (float64, core.Coverage, error) {
	return s.eng.QueryWindowLive(f, k)
}

// CompactStore forces a synchronous retention pass on the epoch-log
// store (normally compaction runs in the background off appends).
func (s *CenterServer) CompactStore() error {
	if s.store == nil {
		return errNoStore
	}
	return s.store.Compact()
}

// ResetReplayCache drops all cached historical-replay state, forcing the
// next queries down the cold path (benchmarks and tests).
func (s *CenterServer) ResetReplayCache() { s.eng.ResetReplayCache() }

// HistoryQueryAddr returns the bound address of the history query
// server, or nil when HistoryAddr was not configured.
func (s *CenterServer) HistoryQueryAddr() net.Addr {
	if s.histSrv == nil {
		return nil
	}
	return s.histSrv.Addr()
}

// liveAnswer is the history query server's live handler: the current
// window's answer, as of the most recent pushed round.
func (s *CenterServer) liveAnswer(f uint64) (float64, core.Coverage) {
	s.mu.Lock()
	k := s.pushed
	s.mu.Unlock()
	if k == 0 {
		return 0, core.Coverage{}
	}
	v, cov, err := s.eng.QueryWindowLive(f, k)
	if err != nil {
		return math.NaN(), core.Coverage{}
	}
	return v, cov
}

// WaitUploads blocks until the center has ingested (or idempotently
// dropped) at least n uploads, or the center closes.
func (s *CenterServer) WaitUploads(n int64) bool {
	return s.waitCond(0, func() bool { return s.uploads+s.dups+s.gaps >= n })
}

// Close stops the server and drops all point connections.
func (s *CenterServer) Close() error {
	err := s.downstream.close()
	if s.histSrv != nil {
		_ = s.histSrv.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// welcomeFor builds the handshake reply for one point from the center's
// view of the epoch clock. Points is the cluster's LEAF count (the sum of
// direct-child weights), which is what every point's coverage accounting
// measures against — identical tree-fed or flat.
func (s *CenterServer) welcomeFor(h Hello) Welcome {
	return Welcome{
		WindowN:     s.cfg.WindowN,
		Points:      s.eng.TotalWeight(),
		ResumeEpoch: s.eng.MaxEpoch() + 1,
		PointEpoch:  s.eng.LastEpoch(h.Point),
	}
}

// ingest stores one upload and, once every point reported the epoch,
// computes and pushes the aggregates for the next epoch. Duplicate
// uploads (retransmits after a redial) and post-gap uploads awaiting a
// rebase are counted and dropped without killing the connection.
func (s *CenterServer) ingest(up Upload) error {
	complete, rcvErr := s.eng.receive(up)

	s.mu.Lock()
	switch {
	case errors.Is(rcvErr, core.ErrDuplicateUpload):
		// Idempotent drop: the point retransmitted after a redial but the
		// first copy had already arrived. No round progress.
		s.dups++
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	case errors.Is(rcvErr, core.ErrUploadGap):
		// Cumulative chain broke; the payload was dropped but the point's
		// epoch clock advanced, so the round still counts it as reported.
		s.gaps++
	case rcvErr != nil:
		s.mu.Unlock()
		return rcvErr
	default:
		s.uploads++
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if complete {
		s.pushRound(up.Epoch+1, nil)
	}
	// The accepted cell goes to the epoch-log store outside s.mu (logCell
	// may take the core center lock, Append does disk I/O), and after the
	// push when it completed the epoch, so the push never waits for its
	// encode or write, nor for the closed epoch's partial, which follows
	// the cell. A next-epoch cell that arrives meanwhile can land before
	// either; whole-segment retention keeps them all. A checkpoint the
	// push writes can thus hold the cell before the log does; a restore
	// re-appends it (appendRestored).
	if rcvErr == nil {
		s.appendStore(up)
	}
	if complete {
		s.appendPartial(up.Epoch)
	}
	return nil
}

// appendStore appends the stored single-epoch cell for an accepted
// upload to the epoch log. Failures are counted and logged but never
// fatal: the live pipeline must outlive its history. Duplicate appends
// after a checkpoint-restore are benign — canonical encodings make the
// re-appended bytes identical and the index keeps one entry.
func (s *CenterServer) appendStore(up Upload) {
	if s.store == nil {
		return
	}
	blob, ok, err := s.eng.logCell(up)
	s.appendCell(up.Point, up.Epoch, blob, ok, err)
}

// appendRestored appends every cell a restored checkpoint holds to the
// epoch log. A checkpoint can hold a cell the log lost: the process died
// between the two, or the log's unsynced tail went with it. The point's
// retransmit of such a cell drops as a duplicate, so without this the
// replay would report less of the epoch than the live window does. The
// checkpoint's cells are in the log's canonical encoding.
func (s *CenterServer) appendRestored() {
	st, err := s.eng.ExportState()
	if err != nil {
		s.cfg.Logf("transport: epoch-log re-append after restore: %v", err)
		s.bump(&s.storeErrs)
		return
	}
	for _, point := range sortedKeys(st.Uploads) {
		per := st.Uploads[point]
		for _, epoch := range sortedKeys(per) {
			s.appendCell(point, epoch, per[epoch], true, nil)
		}
	}
}

// appendCell appends one encoded cell (ok=false: none to append), counting
// and logging a failure.
func (s *CenterServer) appendCell(point int, epoch int64, blob []byte, ok bool, err error) {
	if err == nil && ok {
		if err = s.appendLog(point, epoch, blob); err == nil {
			s.bump(&s.cellAppends)
		}
	}
	if err != nil {
		s.cfg.Logf("transport: epoch-log append (%d, %d): %v", point, epoch, err)
		s.bump(&s.storeErrs)
	}
}

// appendPartial appends a closed epoch's merged partial to the epoch log
// as its partial cell, so a cold replay decodes one blob for the epoch
// instead of joining every point cell (logSource.EpochPartial). Like
// appendStore it is never fatal. It leaves the replay cache alone: the
// replay takes a partial only when it joins exactly the cells the log
// holds, and then it is the sketch those cells give.
func (s *CenterServer) appendPartial(epoch int64) {
	if s.store == nil {
		return
	}
	blob, ok, err := s.eng.logPartial(epoch)
	if err == nil && ok {
		if err = s.appendLog(partialCell, epoch, blob); err == nil {
			s.bump(&s.partialAppends)
		}
	}
	if err != nil {
		s.cfg.Logf("transport: epoch-log partial append (epoch %d): %v", epoch, err)
		s.bump(&s.storeErrs)
	}
}

// errAppendFault is the error an injected append failure reports.
var errAppendFault = errors.New("transport: injected epoch-log append failure")

func (s *CenterServer) appendLog(point int, epoch int64, blob []byte) error {
	if f := s.failAppend.Load(); f != nil && (*f)(point, epoch) {
		return errAppendFault
	}
	return s.store.Append(point, epoch, blob)
}
