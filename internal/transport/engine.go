package transport

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/durable"
)

// The transport drives three protocol engines — a point, a center and a
// relay — each the single generic implementation of its role over the
// core epoch engine (core.Point, core.Center, core.Relay) behind
// byte-level sketch payloads. The design (size/spread) is picked once at
// construction, by the one backend switch in backend.go; every hot path
// after that is design-agnostic, and what differs between the designs
// follows from the design's core.EngineConfig (Additive, Mode).

// decodeFor decodes data into fresh(point), a zero sketch of the shape
// point declared (core.Point.NewSketch, or the NewSketch of the merger a
// center and a relay share). Every sketch payload decodes into its
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
// the decoded value (merge-only applies at the point, a relay's receive
// and the additive one at the size center, whose rounds clone what they
// keep, and the batched history read). It keeps one
// pool per declared width, filled through fresh with a point's shape:
// every point of one node shares the backend's other dimensions, so a
// recycled sketch of one width serves every point of that width, reuses
// its register arrays, and the per-epoch decode path stops allocating once
// warm. A node of p points over three widths keeps three pools. A path
// that retains the decoded sketch (a max-merge center's window store
// aliases it) sets keep, so use leaves the sketch to its holder and every
// payload decodes into a fresh one.
type sketchPool[S core.Sketch[S]] struct {
	fresh func(point int) (S, bool)
	// widths are the points' declared widths; a point not in it has no
	// pool, and its payload is refused by fresh.
	widths map[int]int
	keep   bool
	pools  sync.Map // width -> *sync.Pool
}

// poolFor returns the pool of point's width, or nil for an unknown point.
func (p *sketchPool[S]) poolFor(point int) *sync.Pool {
	w, ok := p.widths[point]
	if !ok {
		return nil
	}
	if v, ok := p.pools.Load(w); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.pools.LoadOrStore(w, new(sync.Pool))
	return v.(*sync.Pool)
}

// use decodes point's payload into a recycled sketch of the point's
// shape, or a fresh one when none is free, and hands it to f, whose error
// it returns; the sketch goes back to the pool after f.
func (p *sketchPool[S]) use(point int, data []byte, f func(S) error) error {
	pool := p.poolFor(point)
	var sk S
	if pool != nil {
		sk, _ = pool.Get().(S)
	}
	var err error
	if core.IsNil(sk) {
		sk, err = decodeFor(p.fresh, point, data)
	} else {
		err = sk.UnmarshalBinary(data)
	}
	if err != nil {
		return fmt.Errorf("decode point %d: %w", point, err)
	}
	err = f(sk)
	if pool != nil && !p.keep {
		pool.Put(sk)
	}
	return err
}

// pointNode is what the PointClient asks core.Point as it is: the
// methods whose signatures name no sketch.
type pointNode interface {
	SetTopology(points, windowN int)
	AdvanceTo(epoch int64)
	ResetWindow()
	Epoch() int64
	Coverage() core.Coverage
	Record(f, e uint64)
	RecordBatch(ps []core.SpreadPacket)
	Query(f uint64) float64
	QueryWithCoverage(f uint64) (float64, core.Coverage)
	Meta() core.PointMeta
	RestoreMeta(m core.PointMeta)
}

// pointEngine is the design-erased measurement point the PointClient
// drives. Sketch payloads cross this boundary as their compact binary
// encodings (the wire and checkpoint representation).
type pointEngine interface {
	pointNode
	newPipe() IngestPipe
	// endEpoch rolls the epoch and returns the finished epoch's number,
	// marshaled upload and protocol metadata.
	endEpoch(rebase bool) (int64, []byte, core.UploadMeta, error)
	applyAggregate(forEpoch int64, data []byte, merged int) error
	applyEnhancement(forEpoch int64, data []byte) error
	applyBackfill(forEpoch int64, data []byte, merged int) error
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
	pointNode // pt, asked as it is
	pt        *core.Point[S]
	// additive selects the size design's state framing (see saveState).
	additive bool
	// scratch recycles decode buffers across pushes: every apply below
	// merges the decoded sketch and drops it, so the same scratch sketch
	// can absorb push after push without allocating.
	scratch sketchPool[S]
}

// newEnginePoint wires the scratch pool to the point's sketch shape, of
// width w.
func newEnginePoint[S core.Sketch[S]](pt *core.Point[S], w int, additive bool) *enginePoint[S] {
	e := &enginePoint[S]{pointNode: pt, pt: pt, additive: additive}
	e.scratch.fresh = func(int) (S, bool) { return pt.NewSketch(), true }
	e.scratch.widths = map[int]int{pt.ID(): w}
	return e
}

func (e *enginePoint[S]) newPipe() IngestPipe { return e.pt.NewRecorder() }
func (e *enginePoint[S]) cumulative() bool    { return e.pt.Mode() == core.ModeCumulative }

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
	return e.scratch.use(e.pt.ID(), data, func(sk S) error { return e.pt.ApplyAggregateCovAt(forEpoch, sk, merged) })
}

func (e *enginePoint[S]) applyEnhancement(forEpoch int64, data []byte) error {
	return e.scratch.use(e.pt.ID(), data, func(sk S) error { return e.pt.ApplyEnhancementAt(forEpoch, sk) })
}

func (e *enginePoint[S]) applyBackfill(forEpoch int64, data []byte, merged int) error {
	return e.scratch.use(e.pt.ID(), data, func(sk S) error { return e.pt.ApplyBackfillCovAt(forEpoch, sk, merged) })
}

// centerNode is what the CenterServer asks core.Center as it is: the
// methods whose signatures name no sketch. SetWeight declares how many
// leaf points one upload from a child represents (relay subtrees), and
// Complete answers the round barrier, which after a restore names the
// restored rounds that may not have been pushed.
type centerNode interface {
	MaxEpoch() int64
	LastEpoch(point int) int64
	SetWeight(point, weight int)
	TotalWeight() int
	Complete(epoch int64) bool
	QueryWindowLive(f uint64, k int64) (float64, core.Coverage, error)
	EnableReplayCache(budgetBytes int64)
	ResetReplayCache()
	ReplayCacheStats() (core.ReplayCacheStats, bool)
	ExportState() (*core.CenterState, error)
	ImportState(st *core.CenterState) error
}

// centerEngine is the design-erased measurement center the CenterServer
// drives. Like pointEngine, sketches cross as binary blobs.
type centerEngine interface {
	centerNode
	// receive ingests one upload and tells whether it completed its
	// epoch's round (core.Center.ReceiveRound): a stored or gap-dropped
	// upload counts, a duplicate does not.
	receive(up Upload) (complete bool, err error)
	// buildPush assembles one point's Push.
	buildPush(point int, forEpoch int64, enhance bool) (Push, error)
	// logCell returns the epoch log's bytes for an accepted upload: the
	// single-epoch measurement the center stored, in its one encoding.
	// ok=false when the center no longer holds the cell.
	logCell(up Upload) ([]byte, bool, error)
	// logPartial returns the epoch log's partial cell for a closed epoch
	// (appendPartialCell); ok=false when the center holds no cell of it.
	logPartial(epoch int64) ([]byte, bool, error)
	// historyAt / historyRange replay the ST join over stored cells
	// (retrospective T-queries); QueryWindowLive answers from the live
	// window — the reference the replay's exactness contract is against.
	historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error)
	historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error)
	// replayReads counts cold replayed epochs by how the log answered
	// them: from the epoch's partial cell, or from its point cells.
	replayReads() (partial, cells int64)
	// storeSpan is the epoch range the log holds point cells for (0, 0
	// when none): the span a history query reads.
	storeSpan(log *durable.Log) (first, last int64)
}

// logSource adapts the durable epoch log to core.HistorySource: the log's
// span and index give the retained epochs and their held ids, a closed
// epoch is served from its partial cell, and otherwise its cells come
// back in one batched pass, decoded through a shared scratch pool: the
// replay never retains the visited sketch, so one recycled sketch per
// worker absorbs an entire pass.
type logSource[S core.Sketch[S]] struct {
	log *durable.Log
	// points lists the center's children: the ids of the log's point cells.
	points []int
	pool   *sketchPool[S]
	wMax   int
	cells  cellIndex[S]
	reads  *replayReads
}

// replayReads counts cold replayed epochs by the path that answered them.
type replayReads struct{ partial, cells atomic.Int64 }

// appendPartialCell builds an epoch's partial cell: u32 count, that many
// u32 point ids in ascending order (the cells the partial joined), u32 the
// length of the maximum-width sketch's one encoding, the encoding, and
// its block index (cellIndex).
func appendPartialCell(ids []int, sk, idx []byte) []byte {
	a := appender{b: make([]byte, 0, 8+4*len(ids)+len(sk)+len(idx))}
	a.u32(len(ids))
	for _, id := range ids {
		a.u32(id)
	}
	a.blob(sk)
	a.raw(idx)
	return a.b
}

// parsePartialCell splits a partial cell into its ids and its body, the
// encoding and its index (aliasing blob; see splitPartialBody). The count
// is bounded by the bytes left; an empty or unsorted id list is rejected.
func parsePartialCell(blob []byte) (ids []int, body []byte, err error) {
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
	body = r.rest()
	if r.err != nil {
		return nil, nil, fmt.Errorf("transport: %w", r.err)
	}
	return ids, body, nil
}

// splitPartialBody splits a partial cell's body into the sketch encoding
// and its block index (aliasing body).
func splitPartialBody(body []byte) (sk, idx []byte, err error) {
	r := reader{b: body}
	sk = r.blob()
	idx = r.rest()
	if r.err != nil {
		return nil, nil, fmt.Errorf("transport: partial cell: %w", r.err)
	}
	return sk, idx, nil
}

// EpochPartial reads epoch's partial cell and returns the stored partial
// it holds (storedPartial) when its ids are exactly held. A cell that
// landed after the partial was logged, a failed cell append and an
// eviction each break that equality, and the replay joins the cells
// instead. So does a cell the replay cannot read: ids that do not parse,
// or a body that is not this backend's current layout at the maximum
// width — a partial cell logged before the cell carried its encoding's
// length and block index is not read, and the cells, which the log keeps
// beside it, answer.
func (ls logSource[S]) EpochPartial(epoch int64, held []int) (core.StoredPartial[S], bool, error) {
	blob, found, err := ls.log.Get(partialCell, epoch)
	if err != nil {
		return nil, false, err
	}
	if found {
		if ids, body, err := parsePartialCell(blob); err == nil && slices.Equal(ids, held) {
			if p, ok := ls.storedPartial(body); ok {
				ls.reads.partial.Add(1)
				return p, true, nil
			}
		}
	}
	ls.reads.cells.Add(1)
	return nil, false, nil
}

// storedPartial turns a partial cell's body into the partial it stores,
// read through its block index (indexedPartial), if the body is this
// backend's layout at the maximum width: an encoding and the block index
// that spans it (cellIndex.check).
func (ls logSource[S]) storedPartial(body []byte) (core.StoredPartial[S], bool) {
	enc, idx, err := splitPartialBody(body)
	if err != nil || ls.cells.check(enc, idx, ls.wMax) != nil {
		return nil, false
	}
	return indexedPartial[S]{body: body, enc: enc, idx: idx, w: ls.wMax, project: ls.cells.project}, true
}

// indexedPartial is a partial cell's body held as read: the encoding of
// width w and its block index, from which Project reads flow f's width-1
// projection (cellIndex.project) without decoding the sketch. It is
// charged its body's bytes.
type indexedPartial[S core.Sketch[S]] struct {
	body, enc, idx []byte
	w              int
	project        func(enc, idx []byte, w int, f uint64) (S, error)
}

func (p indexedPartial[S]) Project(f uint64) (S, error) { return p.project(p.enc, p.idx, p.w, f) }
func (p indexedPartial[S]) HeapBytes() int              { return cap(p.body) }

// Span bounds a replay to the epochs the log retains a point cell for. An
// epoch's partial cell is appended after its push, so it can land in the
// next epoch's segment and outlive the epoch's point cells; such an epoch
// answers nothing and is not part of the span.
func (ls logSource[S]) Span() (first, last int64, ok bool) { return ls.log.SpanOf(ls.points) }

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
		return ls.pool.use(point, blob, func(sk S) error { return visit(point, sk) })
	})
}

// engineCenter is the single center-engine implementation, generic over
// the epoch sketch.
type engineCenter[S core.Sketch[S]] struct {
	centerNode // ctr, asked as it is
	ctr        *core.Center[S]
	// ids lists the children in ascending order.
	ids []int
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
	// cells is the backend's partial-cell block index.
	cells cellIndex[S]
	// pushEnc caches the newest round's encoded aggregates.
	pushEnc encodeMemo
}

// newEngineCenter wraps a center built under cfg over children of the
// given widths.
func newEngineCenter[S core.Sketch[S]](ctr *core.Center[S], cfg core.EngineConfig[S], cells cellIndex[S], widths map[int]int) *engineCenter[S] {
	widths = maps.Clone(widths)
	return &engineCenter[S]{
		centerNode: ctr,
		ctr:        ctr,
		ids:        sortedKeys(widths),
		cum:        cfg.Mode == core.ModeCumulative,
		hist:       &sketchPool[S]{fresh: ctr.NewSketch, widths: widths},
		scratch:    &sketchPool[S]{fresh: ctr.NewSketch, widths: widths, keep: !cfg.Additive},
		cells:      cells,
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

func (e *engineCenter[S]) receive(up Upload) (complete bool, err error) {
	meta := core.UploadMeta{Epoch: up.Epoch, AggApplied: up.AggApplied, EnhApplied: up.EnhApplied, Rebase: up.Rebase}
	err = e.scratch.use(up.Point, up.Sketch, func(sk S) (err error) {
		complete, err = e.ctr.ReceiveRound(up.Point, up.Epoch, sk, meta)
		return err
	})
	return complete, err
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
	enc := S.MarshalBinaryCompact
	if !e.cum {
		enc = func(S) ([]byte, error) { return up.Sketch, nil }
	}
	return e.ctr.MarshalUpload(up.Point, up.Epoch, enc)
}

// logPartial encodes a closed epoch's merged partial as its log cell,
// with the block index built in one pass over the encoding.
func (e *engineCenter[S]) logPartial(epoch int64) ([]byte, bool, error) {
	sk, ids, ok, err := e.ctr.MarshalPartial(epoch, S.MarshalBinaryCompact)
	if err != nil || !ok {
		return nil, false, err
	}
	idx, err := e.cells.index(nil, sk)
	if err != nil {
		return nil, false, fmt.Errorf("transport: index partial epoch %d: %w", epoch, err)
	}
	return appendPartialCell(ids, sk, idx), true, nil
}

func (e *engineCenter[S]) source(log *durable.Log) logSource[S] {
	return logSource[S]{log: log, points: e.ids, pool: e.hist, wMax: e.ctr.Width(), cells: e.cells, reads: &e.reads}
}

func (e *engineCenter[S]) historyAt(f uint64, k int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryAtFrom(f, k, e.source(log))
}

func (e *engineCenter[S]) historyRange(f uint64, from, to int64, log *durable.Log) (float64, core.Coverage, error) {
	return e.ctr.QueryRangeFrom(f, from, to, e.source(log))
}

func (e *engineCenter[S]) storeSpan(log *durable.Log) (first, last int64) {
	first, last, _ = e.source(log).Span()
	return first, last
}

func (e *engineCenter[S]) replayReads() (partial, cells int64) {
	return e.reads.partial.Load(), e.reads.cells.Load()
}
