package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/durable"
)

// The transport drives three protocol engines — a point, a center and a
// relay — each the single generic implementation of its role over the
// core epoch engine (core.Point, core.Center, core.Relay) behind
// byte-level sketch payloads. The design (size/spread) and the spread
// design's sketch backend (rSkt2 or vHLL) are picked once at construction,
// by the one backend switch in backend.go; every hot path after that is
// design-agnostic, and what differs between the designs follows from the
// design's core.EngineConfig (Additive, Mode). Sketch selection is
// out-of-band configuration — the wire messages carry opaque sketch blobs
// and never name the backend, so both sides of a connection must be
// configured with the same Sketch (a mismatch surfaces as a blob decode
// error, killing the connection).

// decodeFor decodes data into fresh(point), a zero sketch of the shape
// point declared (core.Point.NewSketch, core.Center.NewSketch,
// core.Relay.NewChildSketch). Every sketch payload decodes into its
// sender's declared shape, here or through a sketchPool: a sketch with
// dimensions rejects an encoding naming other dimensions from its header,
// so a short hostile payload cannot make a node allocate a sketch of the
// payload's choosing.
func decodeFor[S core.Sketch[S]](fresh func(point int) (S, bool), point int, data []byte) (S, error) {
	var zero S
	sk, ok := fresh(point)
	if !ok {
		return zero, fmt.Errorf("transport: no sketch shape for point %d", point)
	}
	if err := sk.UnmarshalBinary(data); err != nil {
		return zero, err
	}
	return sk, nil
}

// sketchPool recycles decoded sketch scratch on paths that never retain
// the decoded value (merge-only applies at the point, the additive
// receive at the size center, the batched history read). It keeps one
// pool per point id, filled through fresh with that point's shape, so a
// recycled sketch reuses its register arrays and the per-epoch decode
// path stops allocating once warm. A path that retains the decoded sketch
// (a max-merge center's window store aliases it) sets keep, so put leaves
// the sketch to its holder and every get decodes into a fresh one.
type sketchPool[S core.Sketch[S]] struct {
	fresh func(point int) (S, bool)
	keep  bool
	pools sync.Map // point id -> *sync.Pool
}

func (p *sketchPool[S]) poolFor(point int) *sync.Pool {
	if v, ok := p.pools.Load(point); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.pools.LoadOrStore(point, new(sync.Pool))
	return v.(*sync.Pool)
}

// get decodes point's payload into a recycled sketch of the point's
// shape, or a fresh one when none is free. Sketches handed out must come
// back via put after use.
func (p *sketchPool[S]) get(point int, data []byte) (S, error) {
	sk, ok := p.poolFor(point).Get().(S)
	if !ok {
		return decodeFor(p.fresh, point, data)
	}
	if err := sk.UnmarshalBinary(data); err != nil {
		var zero S
		return zero, err
	}
	return sk, nil
}

func (p *sketchPool[S]) put(point int, sk S) {
	if !p.keep {
		p.poolFor(point).Put(sk)
	}
}

// pointEngine is the design-erased measurement point the PointClient
// drives. Sketch payloads cross this boundary as their compact binary
// encodings (the wire and checkpoint representation).
type pointEngine interface {
	setTopology(points, n int)
	advanceTo(epoch int64)
	resetWindow()
	epoch() int64
	coverage() core.Coverage
	record(f, e uint64)
	recordBatch(ps []core.SpreadPacket)
	newPipe() IngestPipe
	query(f uint64) float64
	queryCov(f uint64) (float64, core.Coverage)
	// endEpoch rolls the epoch and returns the finished epoch's number,
	// marshaled upload and protocol metadata.
	endEpoch(rebase bool) (int64, []byte, core.UploadMeta, error)
	applyAggregate(forEpoch int64, data []byte, merged int) error
	applyEnhancement(forEpoch int64, data []byte) error
	applyBackfill(forEpoch int64, data []byte, merged int) error
	meta() core.PointMeta
	restoreMeta(m core.PointMeta)
	// cumulative reports whether uploads form a recovery chain at the
	// center (the cumulative size design), which is what makes rebase
	// sequencing and gap tracking meaningful.
	cumulative() bool
	// queryUnionCov answers the T-query over the union of this engine's
	// query state and every peer's — the flat-equivalent answer for a
	// flow-sharded point set. Peers must be engines of the same design and
	// backend (sharded sub-points are config clones, so they always are).
	queryUnionCov(f uint64, peers []pointEngine) (float64, core.Coverage, error)
	saveState() ([]byte, error)
	loadState(data []byte) error
}

// IngestPipe is one worker's private ingest lane into the point
// (core.Recorder behind the design-erased boundary): the same record path
// as PointClient.Record/RecordBatch behind a lock no other writer takes.
// Record and RecordBatch must only be called by the owning worker; the
// engine's queries and epoch rolls may run concurrently with them and see
// every record whose call has returned. Close retires the pipe.
type IngestPipe interface {
	Record(f, e uint64)
	RecordBatch(ps []core.SpreadPacket)
	Close()
}

// enginePoint is the single point-engine implementation, generic over the
// epoch sketch.
type enginePoint[S core.Sketch[S]] struct {
	pt *core.Point[S]
	// additive selects the size design's state framing (see saveState).
	additive bool
	// scratch recycles decode buffers across pushes: every apply below
	// merges the decoded sketch and drops it, so the same scratch sketch
	// can absorb push after push without allocating.
	scratch sketchPool[S]
}

// newEnginePoint wires the scratch pool to the point's sketch shape.
func newEnginePoint[S core.Sketch[S]](pt *core.Point[S], additive bool) *enginePoint[S] {
	e := &enginePoint[S]{pt: pt, additive: additive}
	e.scratch.fresh = func(int) (S, bool) { return pt.NewSketch(), true }
	return e
}

func (e *enginePoint[S]) setTopology(points, n int)          { e.pt.SetTopology(points, n) }
func (e *enginePoint[S]) advanceTo(epoch int64)              { e.pt.AdvanceTo(epoch) }
func (e *enginePoint[S]) resetWindow()                       { e.pt.ResetWindow() }
func (e *enginePoint[S]) epoch() int64                       { return e.pt.Epoch() }
func (e *enginePoint[S]) coverage() core.Coverage            { return e.pt.Coverage() }
func (e *enginePoint[S]) record(f, el uint64)                { e.pt.Record(f, el) }
func (e *enginePoint[S]) recordBatch(ps []core.SpreadPacket) { e.pt.RecordBatch(ps) }
func (e *enginePoint[S]) newPipe() IngestPipe                { return e.pt.NewRecorder() }
func (e *enginePoint[S]) query(f uint64) float64             { return e.pt.Query(f) }
func (e *enginePoint[S]) queryCov(f uint64) (float64, core.Coverage) {
	return e.pt.QueryWithCoverage(f)
}
func (e *enginePoint[S]) meta() core.PointMeta         { return e.pt.Meta() }
func (e *enginePoint[S]) restoreMeta(m core.PointMeta) { e.pt.RestoreMeta(m) }
func (e *enginePoint[S]) cumulative() bool             { return e.pt.Mode() == core.ModeCumulative }

func (e *enginePoint[S]) queryUnionCov(f uint64, peers []pointEngine) (float64, core.Coverage, error) {
	pts := make([]*core.Point[S], 0, len(peers))
	for _, p := range peers {
		ep, ok := p.(*enginePoint[S])
		if !ok {
			return 0, core.Coverage{}, fmt.Errorf("transport: union across mismatched engines")
		}
		pts = append(pts, ep.pt)
	}
	est, cov := e.pt.QueryUnionWithCoverage(f, pts)
	return est, cov, nil
}

func (e *enginePoint[S]) endEpoch(rebase bool) (int64, []byte, core.UploadMeta, error) {
	epoch := e.pt.Epoch()
	up, meta := e.pt.EndEpochMeta(rebase)
	data, err := up.MarshalBinaryCompact()
	// The encoded bytes are all that leaves this call, so the upload
	// sketch goes back to the point as its next C'.
	e.pt.Recycle(up)
	return epoch, data, meta, err
}

func (e *enginePoint[S]) applyAggregate(forEpoch int64, data []byte, merged int) error {
	sk, err := e.scratch.get(e.pt.ID(), data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyAggregateCovAt(forEpoch, sk, merged)
	e.scratch.put(e.pt.ID(), sk)
	return err
}

func (e *enginePoint[S]) applyEnhancement(forEpoch int64, data []byte) error {
	sk, err := e.scratch.get(e.pt.ID(), data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyEnhancementAt(forEpoch, sk)
	e.scratch.put(e.pt.ID(), sk)
	return err
}

func (e *enginePoint[S]) applyBackfill(forEpoch int64, data []byte, merged int) error {
	sk, err := e.scratch.get(e.pt.ID(), data)
	if err != nil {
		return err
	}
	err = e.pt.ApplyBackfillCovAt(forEpoch, sk, merged)
	e.scratch.put(e.pt.ID(), sk)
	return err
}

// centerEngine is the design-erased measurement center the CenterServer
// drives. Like pointEngine, sketches cross as binary blobs.
type centerEngine interface {
	maxEpoch() int64
	lastEpoch(point int) int64
	// setWeight declares how many leaf points one upload from the child
	// represents (relay subtrees); totalWeight sums the cluster's leaves.
	setWeight(point, weight int)
	totalWeight() int
	receive(up Upload) error
	// buildPush assembles one point's Push.
	buildPush(point int, forEpoch int64, enhance bool) (Push, error)
	// reported tells whether the point's upload for the epoch counted
	// toward its round (stored, or — in cumulative mode — consumed by the
	// sequence position even when gap-dropped).
	reported(point int, epoch int64) bool
	exportState(sec *centerSection) error
	importState(sec *centerSection) error
	// logCell returns the epoch log's bytes for an accepted upload: the
	// single-epoch measurement the center stored, in its one encoding.
	// ok=false when the center no longer holds the cell.
	logCell(up Upload) ([]byte, bool, error)
	// logPartial returns the epoch log's partial cell for a closed epoch
	// (appendPartialCell); ok=false when the center holds no cell of it.
	logPartial(epoch int64) ([]byte, bool, error)
	// historyAt / historyRange replay the ST join over stored cells
	// (retrospective T-queries); queryWindowLive answers from the live
	// window — the reference the replay's exactness contract is against.
	historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error)
	historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error)
	queryWindowLive(f uint64, k int64) (float64, core.Coverage, error)
	// Replay-cache control (see core.ReplayCache): budget attach, cold
	// reset for benchmarks, and counters for /readyz.
	enableReplayCache(budgetBytes int64)
	resetReplayCache()
	replayCacheStats() (core.ReplayCacheStats, bool)
	// replayReads counts cold replayed epochs by how the log answered
	// them: from the epoch's partial cell, or from its point cells.
	replayReads() (partial, cells int64)
}

// logSource adapts the durable epoch log to core.HistorySource: the log's
// span and index give the retained epochs and their held ids, a closed
// epoch is served from its partial cell, and otherwise its cells come
// back in one batched pass, decoded through a shared scratch pool: the
// replay never retains the visited sketch, so one recycled sketch per
// worker absorbs an entire pass.
type logSource[S core.Sketch[S]] struct {
	log  *durable.Log
	pool *sketchPool[S]
	// wide returns a zero sketch of the partials' shape (maximum width).
	wide  func() S
	reads *replayReads
}

// replayReads counts cold replayed epochs by the path that answered them.
type replayReads struct{ partial, cells atomic.Int64 }

// partialPoints is the one-id point list that reads a partial cell.
var partialPoints = []int{partialCell}

// appendPartialCell builds an epoch's partial cell: u32 count, that many
// u32 point ids in ascending order (the cells the partial joined), then
// the maximum-width sketch's one encoding.
func appendPartialCell(ids []int, sk []byte) []byte {
	a := appender{b: make([]byte, 0, 4+4*len(ids)+len(sk))}
	a.u32(len(ids))
	for _, id := range ids {
		a.u32(id)
	}
	a.raw(sk)
	return a.b
}

// parsePartialCell splits a partial cell into its ids and sketch bytes
// (aliasing blob). The count is bounded by the bytes left; an empty or
// unsorted id list is rejected.
func parsePartialCell(blob []byte) (ids []int, sk []byte, err error) {
	r := reader{b: blob}
	n := r.count(4)
	if n == 0 {
		r.fail("partial cell joins no point")
	}
	ids = make([]int, n)
	for i := range ids {
		if ids[i] = r.u32(); i > 0 && ids[i] <= ids[i-1] {
			r.fail("partial cell ids not ascending at %d", i)
		}
	}
	sk = r.rest()
	if r.err != nil {
		return nil, nil, fmt.Errorf("transport: %w", r.err)
	}
	return ids, sk, nil
}

// EpochPartial reads epoch's partial cell and, when its ids are exactly
// held, decodes it into a fresh maximum-width sketch. A cell that landed
// after the partial was logged, a failed cell append and an eviction each
// break that equality, and the replay joins the cells instead.
func (ls logSource[S]) EpochPartial(epoch int64, held []int) (S, bool, error) {
	var sk S
	ok := false
	err := ls.log.GetEpoch(epoch, partialPoints, func(_ int, blob []byte) error {
		ids, body, err := parsePartialCell(blob)
		if err != nil || !slices.Equal(ids, held) {
			return err
		}
		sk = ls.wide()
		if err := sk.UnmarshalBinary(body); err != nil {
			return err
		}
		ok = true
		return nil
	})
	switch {
	case err != nil:
		return sk, false, err
	case ok:
		ls.reads.partial.Add(1)
	default:
		ls.reads.cells.Add(1)
	}
	return sk, ok, nil
}

// Span bounds a replay to the epochs the log retains.
func (ls logSource[S]) Span() (first, last int64, ok bool) { return ls.log.Span() }

// Held probes the log's index once for the whole span.
func (ls logSource[S]) Held(first, last int64, points []int) [][]int {
	return ls.log.Held(first, last, points)
}

// EpochCells streams one epoch's cells out of the log in a single
// batched pass (durable.Log.GetEpoch): segment-grouped offset-ordered
// reads, CRCs checked before each visit, blobs borrowed, sketches
// decoded into pooled scratch that is reclaimed as soon as visit
// returns.
func (ls logSource[S]) EpochCells(epoch int64, points []int, visit func(point int, sk S) error) error {
	return ls.log.GetEpoch(epoch, points, func(point int, blob []byte) error {
		sk, err := ls.pool.get(point, blob)
		if err != nil {
			return err
		}
		err = visit(point, sk)
		ls.pool.put(point, sk)
		return err
	})
}

// engineCenter is the single center-engine implementation, generic over
// the epoch sketch.
type engineCenter[S core.Sketch[S]] struct {
	ctr *core.Center[S]
	// cumulative mirrors pointEngine.cumulative.
	cum bool
	// scratch decodes uploads. Only an additive design recycles them: its
	// receive path clones the upload into a recovered delta and drops it,
	// while a max-merge window store aliases the decoded sketch outright
	// (core.Center.ReceiveMeta stores it without cloning), so recycling
	// there would corrupt the window.
	scratch *sketchPool[S]
	// hist is the shared decode-scratch pool for the history read path
	// (logSource), and reads counts that path's cold epochs.
	hist  *sketchPool[S]
	reads replayReads
	// pushEnc caches the newest round's encoded aggregates.
	pushEnc encodeMemo
}

// newEngineCenter wraps a center built under cfg.
func newEngineCenter[S core.Sketch[S]](ctr *core.Center[S], cfg core.EngineConfig[S]) *engineCenter[S] {
	return &engineCenter[S]{
		ctr:     ctr,
		cum:     cfg.Mode == core.ModeCumulative,
		hist:    &sketchPool[S]{fresh: ctr.NewSketch},
		scratch: &sketchPool[S]{fresh: ctr.NewSketch, keep: !cfg.Additive},
	}
}

// encodeMemo caches marshaled aggregates for the newest pushed epoch,
// keyed by the shared sketch core.Center.AggregateShared returned. Every
// point of one width receives the same sketch, so a round encodes once per
// width; a round memo rebuilt after a late upload hands out new sketches,
// which miss the cache instead of serving stale bytes. The cached slices
// are shared by every Push built from them and never written.
type encodeMemo struct {
	mu    sync.Mutex
	epoch int64
	bytes map[any][]byte
}

// encode returns sk's encoding for a push during forEpoch, from the cache
// when forEpoch is the newest epoch seen. Older epochs (a backfill's
// previous round) are encoded without caching.
func (m *encodeMemo) encode(forEpoch int64, sk any, marshal func() ([]byte, error)) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if forEpoch > m.epoch {
		m.epoch = forEpoch
		m.bytes = make(map[any][]byte)
	}
	if forEpoch < m.epoch {
		return marshal()
	}
	if b, ok := m.bytes[sk]; ok {
		return b, nil
	}
	b, err := marshal()
	if err == nil {
		m.bytes[sk] = b
	}
	return b, err
}

func (e *engineCenter[S]) maxEpoch() int64                      { return e.ctr.MaxEpoch() }
func (e *engineCenter[S]) lastEpoch(point int) int64            { return e.ctr.LastEpoch(point) }
func (e *engineCenter[S]) setWeight(point, weight int)          { e.ctr.SetWeight(point, weight) }
func (e *engineCenter[S]) totalWeight() int                     { return e.ctr.TotalWeight() }
func (e *engineCenter[S]) importState(sec *centerSection) error { return e.ctr.ImportState(sec.state) }

func (e *engineCenter[S]) exportState(sec *centerSection) (err error) {
	sec.state, err = e.ctr.ExportState()
	return err
}

func (e *engineCenter[S]) receive(up Upload) error {
	sk, err := e.scratch.get(up.Point, up.Sketch)
	if err != nil {
		return fmt.Errorf("point %d epoch %d: %w", up.Point, up.Epoch, err)
	}
	err = e.ctr.ReceiveMeta(up.Point, up.Epoch, sk, core.UploadMeta{
		Epoch:      up.Epoch,
		AggApplied: up.AggApplied,
		EnhApplied: up.EnhApplied,
		Rebase:     up.Rebase,
	})
	e.scratch.put(up.Point, sk)
	return err
}

func (e *engineCenter[S]) buildPush(point int, forEpoch int64, enhance bool) (Push, error) {
	push := Push{ForEpoch: forEpoch}
	agg, err := e.ctr.AggregateShared(point, forEpoch)
	if err != nil {
		return push, err
	}
	if !core.IsNil(agg) {
		push.Aggregate, err = e.pushEnc.encode(forEpoch, agg, agg.MarshalBinaryCompact)
		if err != nil {
			return push, err
		}
	}
	if enhance {
		enh, err := e.ctr.EnhancementFor(point, forEpoch)
		if err != nil {
			return push, err
		}
		if !core.IsNil(enh) {
			if push.Enhancement, err = enh.MarshalBinaryCompact(); err != nil {
				return push, err
			}
		}
	}
	push.CovMerged, push.CovExpected = e.ctr.CoverageFor(forEpoch)
	return push, nil
}

// logCell logs a delta-mode upload as received: the center stores it
// unchanged, and decoders accept only canonical encodings, so the payload
// is byte for byte what re-encoding the stored cell would give, without
// the re-encode under the center lock. Cumulative mode stores a recovered
// delta, which is encoded from the center.
func (e *engineCenter[S]) logCell(up Upload) ([]byte, bool, error) {
	if !e.cum {
		return up.Sketch, e.ctr.HasUpload(up.Point, up.Epoch), nil
	}
	return e.ctr.MarshalUpload(up.Point, up.Epoch, S.MarshalBinaryCompact)
}

// logPartial encodes a closed epoch's merged partial as its log cell.
func (e *engineCenter[S]) logPartial(epoch int64) ([]byte, bool, error) {
	sk, ids, ok, err := e.ctr.MarshalPartial(epoch, S.MarshalBinaryCompact)
	if err != nil || !ok {
		return nil, false, err
	}
	return appendPartialCell(ids, sk), true, nil
}

func (e *engineCenter[S]) source(log *durable.Log) logSource[S] {
	return logSource[S]{log: log, pool: e.hist, wide: e.ctr.NewPartialSketch, reads: &e.reads}
}

func (e *engineCenter[S]) historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryAtFrom(f, k, e.source(log))
}

func (e *engineCenter[S]) historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryRangeFrom(f, from, to, e.source(log))
}

func (e *engineCenter[S]) replayReads() (partial, cells int64) {
	return e.reads.partial.Load(), e.reads.cells.Load()
}

func (e *engineCenter[S]) enableReplayCache(budgetBytes int64) { e.ctr.EnableReplayCache(budgetBytes) }
func (e *engineCenter[S]) resetReplayCache()                   { e.ctr.ResetReplayCache() }
func (e *engineCenter[S]) replayCacheStats() (core.ReplayCacheStats, bool) {
	return e.ctr.ReplayCacheStats()
}

func (e *engineCenter[S]) queryWindowLive(f uint64, k int64) (float64, core.Coverage, error) {
	return e.ctr.QueryWindowLive(f, k)
}

func (e *engineCenter[S]) reported(point int, epoch int64) bool {
	if e.ctr.HasUpload(point, epoch) {
		return true
	}
	// A gap-dropped cumulative upload leaves no delta but advances the
	// point's sequence position; it still counted toward the round.
	return e.cum && e.ctr.LastEpoch(point) >= epoch
}
