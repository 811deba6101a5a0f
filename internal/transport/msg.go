// Package transport deploys the protocol over real TCP connections: a
// measurement-center server, measurement-point clients, and the tiny
// query RPC the baselines need to fetch peer answers (whose round trips
// are exactly what Table I charges them for).
//
// Wire protocol: every point opens one TCP connection to the center and
// sends a Hello, receives a Welcome (topology and epoch resync), then
// sends one Upload per epoch, gob-encoded. The center answers with Push
// messages carrying the ST-join aggregate (and the optional enhancement)
// for the epoch in progress, plus the aggregate's window coverage. Sketch
// payloads travel as opaque bytes in each sketch's one binary encoding
// (core.Sketch.MarshalBinaryCompact), not as gob structures. Golden
// encodings of every message live in testdata/golden (see
// golden_test.go): a change that breaks point↔center version
// compatibility fails those tests loudly.
package transport

// Kind discriminates the two designs on the wire.
type Kind string

const (
	// KindSize runs the two-sketch flow-size design.
	KindSize Kind = "size"
	// KindSpread runs the three-sketch flow-spread design.
	KindSpread Kind = "spread"
)

// Hello is the first message on a point connection.
type Hello struct {
	Point int
	Kind  Kind
	// W is the point's sketch width (estimator columns for spread,
	// counters per row for size). The remaining sketch parameters are
	// fixed by the center's topology.
	W int
	// StateEpoch is the point's local epoch at dial time (1 for a fresh
	// point). The center compares it against the cluster clock: a point
	// whose state is behind (restart from an old checkpoint, or no
	// checkpoint at all) is offered a backfill push (Push.IntoCurrent)
	// rebuilding the window it missed. Old centers ignore the field; old
	// points leave it zero, which the center treats like a fresh point.
	StateEpoch int64
	// Weight is the number of leaf measurement points one upload on this
	// connection represents: 0 or 1 for a direct point, the subtree's leaf
	// count for an aggregation relay (see RelayConfig). Gob omits zero
	// fields, so pre-tree binaries interoperate as weight-1 points.
	Weight int
	// Shard is the center shard this connection expects to reach in a
	// flow-sharded deployment (0 in the flat one). The center rejects a
	// mismatch: cross-wired shards share sketch parameters, so without the
	// check a misrouted point would corrupt a shard silently.
	Shard int
}

// Welcome is the center's reply to a Hello. It tells the point the
// cluster's shape (for Coverage accounting) and where to rejoin the epoch
// clock after a restart or a long outage.
type Welcome struct {
	// WindowN is the paper's n; Points is the cluster's point count.
	WindowN int
	Points  int
	// ResumeEpoch is the cluster's current epoch as the center sees it
	// (max uploaded epoch + 1). A point whose local epoch is behind (a
	// stateless restart) fast-forwards to it.
	ResumeEpoch int64
	// PointEpoch is the last epoch the center ingested from this point
	// (0 if none). The point compares it against its retransmit buffer to
	// decide whether the center lost epochs and a rebase upload is needed
	// (cumulative size design).
	PointEpoch int64
}

// Upload carries one epoch's measurement from a point to the center. The
// flags mirror core.UploadMeta: they tell the center which of its pushes
// the uploaded sketch's lineage actually absorbed, so the flow-size
// design's cumulative recovery subtracts exactly what was merged even
// when pushes were lost, and Rebase marks a chain-reseeding C' upload.
type Upload struct {
	Point      int
	Epoch      int64
	Sketch     []byte
	AggApplied bool
	EnhApplied bool
	Rebase     bool
	// Heartbeat marks a liveness probe instead of a measurement: Sketch is
	// empty, Epoch is the point's current local epoch, and the frame must
	// not be ingested. A server with a read deadline armed uses heartbeats
	// to tell an idle-but-alive child (sends them between epochs) from a
	// half-open one (sends nothing, gets evicted). Old servers built before
	// the field would ingest the frame, so points only emit heartbeats when
	// HeartbeatEvery is explicitly configured. Gob leaves the field false
	// for old senders, keeping every pre-heartbeat stream valid.
	Heartbeat bool
}

// Push carries the center's ST-join result back to one point. It must be
// applied during epoch ForEpoch (the round-trip bound guarantees delivery
// in time on a healthy deployment). CovMerged/CovExpected report how many
// point-epoch uploads the aggregate actually joined versus how many a
// fully healthy window would hold; the point surfaces the ratio as the
// per-query Coverage.
type Push struct {
	ForEpoch    int64
	Aggregate   []byte // empty while the window has no completed epochs
	Enhancement []byte // empty unless the enhancement is enabled
	CovMerged   int
	CovExpected int
	// IntoCurrent marks a backfill push: the aggregate is the one the
	// center sent during epoch ForEpoch-1 and must be merged directly into
	// the current query target C (not staged into C'), restoring the
	// window a restarted point lost. Sent once per reconnect of a
	// state-behind point; the point's backfill guard drops duplicates.
	IntoCurrent bool
}
