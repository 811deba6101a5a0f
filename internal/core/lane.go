package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The ingest path (stage 1, local online recording).
//
// A packet is recorded into B, C and C' identically, so one *delta*
// sketch stands in for all three: a lane. Every record entry point —
// Point.Record, Point.RecordBatch and a Recorder — runs the same body:
// lock a lane, Record each packet into its delta, mark it dirty, unlock.
// They differ only in which lane they lock: Record picks a shared lane by
// the flow key, RecordBatch claims the first free shared lane for the
// whole batch, and a Recorder owns a private lane no other writer touches.
//
// Lanes reach the authoritative sketch set through the design's own merge
// algebra (counter-wise addition for size, register-wise max for spread)
// at the fold points:
//
//   - EndEpoch drains every dirty lane with one merge per lane per sketch
//     it keeps: in delta mode B is built in the memory of the C the
//     boundary discards — a copy of the first dirty lane, the others
//     merged into it — and merges into C' once, so B is not a standing
//     sketch; in cumulative mode each lane merges into C and C'. After an
//     ImportState the point holds the restored B, which already sits in
//     C', and that epoch's boundary merges each lane into B and C'
//     separately instead;
//   - ExportState folds the lanes into its copies and leaves the point as
//     it was, so persisted state is lane-free;
//   - Recorder.Close hands its lane's delta to a shared lane;
//   - Query folds on the fly (the algebra's union along the queried row
//     positions only) and mutates nothing.
//
// Both merges are associative and commutative, so the folded state is
// bit-identical to what a single sketch set would hold after the same
// multiset of records — the Thm 6.1/6.3 exact-equality invariants hold
// whichever lane a packet went through. A record is visible to every fold
// point once the call that made it returns.
//
// The upload EndEpoch returns can come back through Point.Recycle once
// encoded; the next boundary reuses it as C' instead of allocating.

// SpreadPacket is one <flow, element> packet for batched recording
// (RecordBatch). For the size design only Flow is meaningful.
type SpreadPacket struct {
	Flow, Elem uint64
}

// lane is one ingest delta and the lock that guards it. Writers and fold
// points both take mu, so the sketch backend needs no atomic access.
//
// mu and dirty are written on every record. The tail pad makes the
// allocation span more than a cache line, so two lanes allocated back to
// back never share one: without it the struct lands in Go's 48-byte size
// class and writers on neighboring lanes serialize on coherence traffic.
type lane[S Sketch[S]] struct {
	mu    sync.Mutex
	dirty atomic.Bool // set on record, cleared on fold; lets fold points skip clean lanes without locking
	d     S
	_     [64]byte
}

// record inserts one packet.
func (l *lane[S]) record(f, e uint64) {
	l.mu.Lock()
	l.d.Record(f, e)
	l.markDirty()
	l.mu.Unlock()
}

// apply inserts a batch. Caller holds l.mu.
func (l *lane[S]) apply(ps []SpreadPacket) {
	for _, q := range ps {
		l.d.Record(q.Flow, q.Elem)
	}
	l.markDirty()
}

// applyFlows is apply over bare flow keys (element zero). Caller holds
// l.mu.
func (l *lane[S]) applyFlows(fs []uint64) {
	for _, f := range fs {
		l.d.Record(f, 0)
	}
	l.markDirty()
}

// clear empties the delta after a fold. Caller holds l.mu.
func (l *lane[S]) clear() {
	l.d.Reset()
	l.dirty.Store(false)
}

// markDirty flags the delta as holding unfolded records. Caller holds
// l.mu, which orders the flag against the fold that clears it. The load
// keeps the steady state read-only: an atomic store is a full barrier.
func (l *lane[S]) markDirty() {
	if !l.dirty.Load() {
		l.dirty.Store(true)
	}
}

// maxShards caps the shared-lane count: past a few lanes the record path
// is memory-bandwidth-bound, while query-time folding cost keeps growing
// linearly.
const maxShards = 8

// normShards resolves an EngineConfig.Shards request: 0 selects
// GOMAXPROCS, and the result is clamped to [1, maxShards].
func normShards(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, min(n, maxShards))
}

// shardOf maps a flow to its shared lane (Fibonacci hashing on the flow
// key). Any placement would be correct — the fold algebra is exact — but a
// flow-stable choice keeps concurrent recorders of disjoint flow sets on
// disjoint lanes without any shared state.
func shardOf(f uint64, n int) int {
	if n == 1 {
		return 0
	}
	return int((f * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}
