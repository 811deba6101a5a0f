package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Relay is a mid-level node of an aggregation tree: it merges the
// per-epoch uploads of its children (leaf points or deeper relays) and
// hands each epoch's combined sketch upstream as one upload. It is the
// per-epoch merger a center also runs (epochMerge: the door, the
// children's clocks and weights, each epoch's round joined at its cells'
// own widths) plus an in-order forwarder. The ST join is associative and
// commutative, and ExpandTo is a homomorphism of both merge algebras
// that composes along a divisibility chain of widths, so a center fed
// through relays computes bit-identically the join a flat center computes
// from the leaf uploads: Thm 6.1/6.3 survive the tree (DESIGN.md §12).
//
// A relay only sees per-epoch deltas: the merge of c children's
// cumulative sketches holds c copies of every center push, which no
// single subtraction inverts. Size-design trees therefore run ModeDelta
// end to end (NewRelay rejects ModeCumulative), which equals the flat
// cumulative design exactly on healthy traces.
//
// Forwarding: an epoch's combined upload is ready (Next) once every child
// reported it and every earlier epoch was forwarded; Next expands each
// width group once. Strict order is what an additive upstream center
// requires, and the all-children barrier makes a forwarded upload stand
// for the whole subtree, so the center weights it by the leaf count.
//
// Liveness: children retransmit across outages, but their buffers hold
// one window, so a round every child has moved a window past can never
// complete. Receive abandons such dead rounds; otherwise an outage longer
// than the window would wedge the subtree forever. The skipped epochs
// surface upstream as incomplete center rounds, the coverage loss a flat
// center reports when a point's uploads age out.
type Relay[S Sketch[S]] struct {
	epochMerge[S]
	// forwarded is the highest epoch handed out by Next: everything at or
	// below it is sealed, and late uploads for it are dropped as
	// duplicates (the upstream center would drop an amended re-upload the
	// same way).
	forwarded int64
}

// NewRelay creates a relay for children with the given sketch prototypes
// (keyed by child id) and subtree weights (leaf count per child; 0 or a
// missing entry means 1, i.e. a leaf point). All prototypes must be
// mutually compatible and the maximum width must be a multiple of every
// width, exactly as at a center. cfg.Mode must be ModeDelta: relays merge
// per-epoch measurements, and cumulative uploads are not mergeable.
func NewRelay[S Sketch[S]](windowN int, protos map[int]S, weights map[int]int, cfg EngineConfig[S]) (*Relay[S], error) {
	r := &Relay[S]{}
	if err := r.init(windowN, protos, weights, cfg); err != nil {
		return nil, err
	}
	if cfg.Mode != ModeDelta {
		return nil, fmt.Errorf("core: relays require delta-mode uploads (cumulative sketches cannot be pre-merged)")
	}
	return r, nil
}

// Receive ingests one child's upload for an epoch, joining it into the
// epoch's round. A second upload from the same child for the same epoch,
// or any upload for an already-forwarded epoch, is dropped idempotently
// (ErrDuplicateUpload), so retransmissions after a redial are safe. The
// upload is never retained: callers may reuse the sketch.
func (r *Relay[S]) Receive(child int, epoch int64, up S) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.admit(child, epoch, up); err != nil {
		return err
	}
	r.abandonDeadLocked()
	if j, ok := r.part[epoch]; epoch <= r.forwarded || ok && slices.Contains(j.ids, child) {
		return ErrDuplicateUpload
	}
	if _, err := r.joinLocked(child, epoch, up); err != nil {
		return err
	}
	// A round more than one window ahead of the forwarding position can
	// only exist if a child ran far ahead while another stalled; keeping
	// more than a window of unmergeable future rounds would let a runaway
	// (or hostile) child grow relay memory without bound. Trimmed rounds
	// re-collect from the children's retransmit buffers while the stall
	// stays inside one window; past that, abandonDeadLocked gives the
	// rounds up instead.
	r.keepLocked(math.MinInt64, r.forwarded+int64(r.windowN)+1)
	return nil
}

// Next pops the next combined upload ready to travel upstream: the epoch
// right after the last forwarded one, once every child has reported it.
// The returned sketch is owned by the caller. Call in a loop — several
// epochs can complete back to back when a lagging child catches up.
func (r *Relay[S]) Next() (epoch int64, combined S, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.forwarded + 1
	if !r.completeLocked(e) {
		return 0, combined, false
	}
	j := r.part[e]
	delete(r.part, e)
	r.forwarded = e
	// Widths divide the relay's (epochMerge.init) and every cell passed the
	// door, so the join cannot fail.
	combined, _, err := j.join(e, r.wMax)
	if err != nil {
		panic("core: relay join: " + err.Error())
	}
	return e, combined, true
}

// Forwarded returns the highest epoch handed out by Next.
func (r *Relay[S]) Forwarded() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.forwarded
}

// ResyncForwarded raises the forwarding position to the epoch the
// upstream center already holds (its Welcome.PointEpoch for this relay):
// a freshly restarted relay must not rebuild and re-forward epochs the
// center ingested before the crash. Pending rounds at or below the new
// position are sealed and dropped; the position never moves backward (a
// center restored from an old checkpoint re-collects the missing epochs
// from this relay's upstream retransmit buffer instead).
func (r *Relay[S]) ResyncForwarded(epoch int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.forwarded {
		r.sealLocked(epoch)
	}
}

// sealLocked moves the forwarding position to epoch and drops the rounds
// at or below it.
func (r *Relay[S]) sealLocked(epoch int64) {
	r.forwarded = epoch
	r.keepLocked(epoch+1, math.MaxInt64)
}

// abandonDeadLocked advances the forwarding position past rounds that
// can never complete: transports cap each child's retransmit buffer at
// one window, so once every child's latest upload is a full window past
// an unforwarded epoch, no child can re-supply it and the barrier would
// hold the subtree open forever (the post-outage wedge). Children that
// have never uploaded keep the relay waiting — nothing is known about
// their position.
func (r *Relay[S]) abandonDeadLocked() {
	if len(r.lastEpoch) < len(r.ids) {
		return
	}
	lo := int64(math.MaxInt64)
	for _, e := range r.lastEpoch {
		lo = min(lo, e)
	}
	if floor := lo - int64(r.windowN); floor > r.forwarded {
		r.sealLocked(floor)
	}
}

// RelayState is the durable form of a relay's merge state: the forwarding
// position, per-child sequence positions, and the partially merged
// pending rounds, mirroring the center's checkpoint primitives.
type RelayState struct {
	Forwarded int64
	LastEpoch map[int]int64
	// Pending[epoch] is the partially merged round: the combined sketch at
	// relay width plus the children already merged into it.
	Pending map[int64]RelayRoundState
}

// RelayRoundState is one pending epoch's durable form. Reported is in
// ascending order.
type RelayRoundState struct {
	Merged   []byte
	Reported []int
}

// ExportState snapshots the relay's merge state atomically. A pending
// round is joined at the relay's width for the snapshot and stays open.
func (r *Relay[S]) ExportState() (*RelayState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &RelayState{
		Forwarded: r.forwarded,
		LastEpoch: maps.Clone(r.lastEpoch),
		Pending:   make(map[int64]RelayRoundState, len(r.part)),
	}
	for e, j := range r.part {
		rs := RelayRoundState{Reported: slices.Clone(j.ids)}
		slices.Sort(rs.Reported)
		sk, ok, err := j.join(e, r.wMax)
		if err == nil && ok {
			rs.Merged, err = sk.MarshalBinaryCompact()
		}
		if err != nil {
			return nil, fmt.Errorf("core: export relay round %d: %w", e, err)
		}
		st.Pending[e] = rs
	}
	return st, nil
}

// ImportState replaces the relay's merge state with a previously exported
// snapshot, decoding each merged round into a zero sketch of the relay's
// shape, which the round then holds as its one width group. Every child
// id must be known, each round's reporters ascending, and every sketch
// must decode to the relay's width and shape — a checkpoint from a
// differently configured tree is rejected before any state is replaced.
// A nil state is a no-op.
func (r *Relay[S]) ImportState(st *RelayState) error {
	if st == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	last, err := r.importClockLocked(st.LastEpoch)
	if err != nil {
		return err
	}
	part := make(map[int64]*epochJoin[S], len(st.Pending))
	for e, rs := range st.Pending {
		if err := r.knownLocked(rs.Reported...); err != nil {
			return err
		}
		for i := 1; i < len(rs.Reported); i++ {
			if rs.Reported[i] <= rs.Reported[i-1] {
				return fmt.Errorf("core: import relay round %d: reported children not ascending", e)
			}
		}
		j := &epochJoin[S]{epochPartial: epochPartial[S]{ids: slices.Clone(rs.Reported)}}
		if len(rs.Merged) > 0 {
			sk, err := decodeAs(r.wide, rs.Merged)
			if err != nil {
				return fmt.Errorf("core: import relay round %d: %w", e, err)
			}
			j.groups = []S{sk}
		}
		part[e] = j
	}
	r.forwarded, r.lastEpoch, r.part = st.Forwarded, last, part
	return nil
}
