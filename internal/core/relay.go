package core

import (
	"fmt"
	"sync"
)

// Relay is a mid-level node of an aggregation tree: it ingests the
// per-epoch uploads of its children (leaf points or deeper relays),
// merges them under the design's algebra, and hands the combined sketch
// upstream as a single upload. The ST join is associative and
// commutative, and ExpandTo is a homomorphism of both merge algebras
// (expand(a ⊕ b) = expand(a) ⊕ expand(b), and expansions compose along a
// divisibility chain of widths), so a center fed through relays computes
// bit-identically the same join as a flat center fed the leaf uploads —
// the Thm 6.1/6.3 equalities survive the tree (see DESIGN.md §12).
//
// A relay only ever sees per-epoch deltas: cumulative uploads cannot
// pass through it, because the merge of c children's cumulative sketches
// contains c copies of every center push and no single subtraction can
// invert that. Size-design trees therefore run ModeDelta end to end
// (NewRelay rejects ModeCumulative), which the flat cumulative design
// equals exactly on healthy traces — the inversion recovers the same
// integer deltas the points would have uploaded directly.
//
// Forwarding discipline: an epoch's combined upload becomes available
// (Next) only when every child has reported it and every earlier epoch
// has been forwarded. Strict in-order forwarding is what an additive
// upstream center requires (it drops out-of-order uploads), and the
// all-children barrier keeps coverage accounting all-or-nothing per
// relay-epoch: a forwarded upload always represents the relay's whole
// subtree, so the center can weight it by the subtree's leaf count.
//
// Liveness: a round stalls until every child reports, and children
// buffer and retransmit across outages — but their retransmit buffers
// hold at most one window, so a round EVERY child has moved a full
// window past can never complete. Receive abandons such dead rounds
// (advances the forwarding position past them), otherwise an outage
// longer than the window would wedge the barrier — and the whole
// subtree — forever. The skipped epochs surface upstream as permanently
// incomplete center rounds, the same honest coverage degradation a flat
// center reports when a point's uploads age out.
type Relay[S Sketch[S]] struct {
	mu sync.Mutex

	design   string
	windowN  int
	additive bool

	protos  map[int]S   // zero-state prototype per child (width + shape)
	weights map[int]int // leaf count under each child (>= 1)
	weight  int         // total subtree leaf count
	width   int         // max child width: the relay's own upload width
	wide    S           // zero-state prototype at the relay's width

	// pending[epoch] accumulates the partially merged round.
	pending map[int64]*relayRound[S]
	// lastEpoch[child] is the most recent epoch the child uploaded;
	// transports use it to resynchronize reconnecting children.
	lastEpoch map[int]int64
	// forwarded is the highest epoch handed out by Next: everything at or
	// below it is sealed, and late uploads for it are dropped as
	// duplicates (the upstream center would drop an amended re-upload the
	// same way).
	forwarded int64
}

// relayRound is one epoch's partially merged upload.
type relayRound[S Sketch[S]] struct {
	merged   S // at the relay's width
	reported map[int]bool
}

// NewRelay creates a relay for children with the given sketch prototypes
// (keyed by child id) and subtree weights (leaf count per child; 0 or a
// missing entry means 1, i.e. a leaf point). All prototypes must be
// mutually compatible and the maximum width must be a multiple of every
// width, exactly as at a center. cfg.Mode must be ModeDelta: relays merge
// per-epoch measurements, and cumulative uploads are not mergeable.
func NewRelay[S Sketch[S]](windowN int, protos map[int]S, weights map[int]int, cfg EngineConfig[S]) (*Relay[S], error) {
	if windowN < 3 {
		return nil, fmt.Errorf("core: window n must be >= 3, got %d", windowN)
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("core: relay has no children")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode != ModeDelta {
		return nil, fmt.Errorf("core: relays require delta-mode uploads (cumulative sketches cannot be pre-merged)")
	}
	width := 0
	var ref S
	haveRef := false
	for _, p := range protos {
		if IsNil(p) {
			return nil, fmt.Errorf("core: nil sketch prototype")
		}
		if p.Width() > width {
			width = p.Width()
		}
		if !haveRef {
			ref = p
			haveRef = true
		}
	}
	for id, p := range protos {
		if !ref.Compatible(p) {
			return nil, fmt.Errorf("core: child %d's sketch is incompatible with the relay", id)
		}
		if width%p.Width() != 0 {
			return nil, fmt.Errorf("core: width %d of child %d does not divide relay width %d", p.Width(), id, width)
		}
	}
	r := &Relay[S]{
		design:    cfg.Design,
		windowN:   windowN,
		additive:  cfg.Additive,
		protos:    make(map[int]S, len(protos)),
		weights:   make(map[int]int, len(protos)),
		width:     width,
		pending:   make(map[int64]*relayRound[S]),
		lastEpoch: make(map[int]int64, len(protos)),
	}
	for id, p := range protos {
		r.protos[id] = p.Clone()
		if p.Width() == width {
			r.wide = r.protos[id]
		}
		w := weights[id]
		if w < 1 {
			w = 1
		}
		r.weights[id] = w
		r.weight += w
	}
	return r, nil
}

// Width is the relay's upstream upload width: the maximum child width.
func (r *Relay[S]) Width() int { return r.width }

// NewSketch returns a zero sketch of the relay's own shape (its width):
// the target a push from upstream decodes into, so one naming other
// dimensions is rejected before it allocates.
func (r *Relay[S]) NewSketch() S { return r.wide.Clone() }

// NewChildSketch returns a zero sketch of child's declared shape: the
// target the child's uploads decode into. ok is false for an unknown
// child.
func (r *Relay[S]) NewChildSketch(child int) (sk S, ok bool) {
	// protos are fixed at construction; no lock needed.
	proto, ok := r.protos[child]
	if !ok {
		return sk, false
	}
	return proto.Clone(), true
}

// Weight is the relay's total subtree leaf count — what the upstream
// center weights each combined upload by in its coverage accounting.
func (r *Relay[S]) Weight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.weight
}

// ChildWeight returns the subtree leaf count under one child (0 for an
// unknown child).
func (r *Relay[S]) ChildWeight(child int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.weights[child]
}

// Children returns the configured child ids (unordered).
func (r *Relay[S]) Children() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, 0, len(r.protos))
	for id := range r.protos {
		ids = append(ids, id)
	}
	return ids
}

// Receive ingests one child's upload for an epoch: the sketch is expanded
// to the relay width and merged into the epoch's combined round. A second
// upload from the same child for the same epoch, or any upload for an
// already-forwarded epoch, is dropped idempotently (ErrDuplicateUpload),
// so retransmissions after a redial are safe. The upload is never
// retained: callers may reuse the sketch.
func (r *Relay[S]) Receive(child int, epoch int64, up S) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	proto, ok := r.protos[child]
	if !ok {
		return fmt.Errorf("core: unknown %s relay child %d", r.design, child)
	}
	if IsNil(up) || !proto.Compatible(up) || proto.Width() != up.Width() {
		return fmt.Errorf("core: upload from child %d does not match its declared sketch", child)
	}
	if epoch < 1 {
		return fmt.Errorf("core: child %d uploaded impossible epoch %d", child, epoch)
	}
	if epoch > r.lastEpoch[child] {
		r.lastEpoch[child] = epoch
	}
	r.abandonDeadLocked()
	if epoch <= r.forwarded {
		return ErrDuplicateUpload
	}
	rr := r.pending[epoch]
	if rr == nil {
		rr = &relayRound[S]{reported: make(map[int]bool, len(r.protos))}
		r.pending[epoch] = rr
	}
	if rr.reported[child] {
		return ErrDuplicateUpload
	}
	// ExpandTo always returns a fresh sketch (even at equal widths), so the
	// round never aliases the caller's upload.
	e, err := up.ExpandTo(r.width)
	if err != nil {
		return fmt.Errorf("core: expand child %d epoch %d: %w", child, epoch, err)
	}
	if IsNil(rr.merged) {
		rr.merged = e
	} else if err := rr.merged.Merge(e); err != nil {
		return fmt.Errorf("core: relay merge child %d epoch %d: %w", child, epoch, err)
	}
	rr.reported[child] = true
	r.trimLocked()
	return nil
}

// Next pops the next combined upload ready to travel upstream: the epoch
// right after the last forwarded one, once every child has reported it.
// The returned sketch is owned by the caller. Call in a loop — several
// epochs can complete back to back when a lagging child catches up.
func (r *Relay[S]) Next() (epoch int64, combined S, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero S
	e := r.forwarded + 1
	rr := r.pending[e]
	if rr == nil || len(rr.reported) < len(r.protos) {
		return 0, zero, false
	}
	delete(r.pending, e)
	r.forwarded = e
	return e, rr.merged, true
}

// LastEpoch returns the most recent epoch the child has uploaded (0 if
// none).
func (r *Relay[S]) LastEpoch(child int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastEpoch[child]
}

// MaxEpoch returns the most recent epoch any child has uploaded (0 if
// none) — the subtree's epoch clock as the relay sees it.
func (r *Relay[S]) MaxEpoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m int64
	for _, e := range r.lastEpoch {
		if e > m {
			m = e
		}
	}
	if r.forwarded > m {
		m = r.forwarded
	}
	return m
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
	if epoch <= r.forwarded {
		return
	}
	r.forwarded = epoch
	for e := range r.pending {
		if e <= epoch {
			delete(r.pending, e)
		}
	}
}

// abandonDeadLocked advances the forwarding position past rounds that
// can never complete: transports cap each child's retransmit buffer at
// one window, so once every child's latest upload is a full window past
// an unforwarded epoch, no child can re-supply it and the barrier would
// hold the subtree open forever (the post-outage wedge). Children that
// have never uploaded keep the relay waiting — nothing is known about
// their position. Caller holds r.mu.
func (r *Relay[S]) abandonDeadLocked() {
	if len(r.lastEpoch) < len(r.protos) {
		return
	}
	min := int64(-1)
	for _, e := range r.lastEpoch {
		if min < 0 || e < min {
			min = e
		}
	}
	floor := min - int64(r.windowN)
	if floor <= r.forwarded {
		return
	}
	r.forwarded = floor
	for e := range r.pending {
		if e <= floor {
			delete(r.pending, e)
		}
	}
}

// trimLocked bounds the pending-round store: a round more than one window
// ahead of the forwarding position can only exist if a child ran far
// ahead while another stalled; keeping more than a window of unmergeable
// future rounds would let a runaway (or hostile) child grow relay memory
// without bound. Trimmed rounds re-collect from the children's retransmit
// buffers while the stall stays inside one window; past that,
// abandonDeadLocked gives the rounds up instead. Caller holds r.mu.
func (r *Relay[S]) trimLocked() {
	ceil := r.forwarded + int64(r.windowN) + 1
	for e := range r.pending {
		if e > ceil {
			delete(r.pending, e)
		}
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

// RelayRoundState is one pending epoch's durable form.
type RelayRoundState struct {
	Merged   []byte
	Reported []int
}

// ExportState snapshots the relay's merge state atomically.
func (r *Relay[S]) ExportState() (*RelayState, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &RelayState{
		Forwarded: r.forwarded,
		LastEpoch: make(map[int]int64, len(r.lastEpoch)),
		Pending:   make(map[int64]RelayRoundState, len(r.pending)),
	}
	for id, e := range r.lastEpoch {
		st.LastEpoch[id] = e
	}
	for e, rr := range r.pending {
		var rs RelayRoundState
		if !IsNil(rr.merged) {
			data, err := rr.merged.MarshalBinaryCompact()
			if err != nil {
				return nil, fmt.Errorf("core: export relay round %d: %w", e, err)
			}
			rs.Merged = data
		}
		for id := range rr.reported {
			rs.Reported = append(rs.Reported, id)
		}
		st.Pending[e] = rs
	}
	return st, nil
}

// ImportState replaces the relay's merge state with a previously exported
// snapshot, decoding each merged round into a zero sketch of the relay's
// shape. Every child id must be known and every sketch must decode to the
// relay's width and shape — a checkpoint from a differently configured
// tree is rejected before any state is replaced. A nil state is a no-op.
func (r *Relay[S]) ImportState(st *RelayState) error {
	if st == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lastEpoch := make(map[int]int64, len(st.LastEpoch))
	for id, e := range st.LastEpoch {
		if _, ok := r.protos[id]; !ok {
			return fmt.Errorf("core: import: unknown %s relay child %d", r.design, id)
		}
		lastEpoch[id] = e
	}
	pending := make(map[int64]*relayRound[S], len(st.Pending))
	for e, rs := range st.Pending {
		rr := &relayRound[S]{reported: make(map[int]bool, len(rs.Reported))}
		for _, id := range rs.Reported {
			if _, ok := r.protos[id]; !ok {
				return fmt.Errorf("core: import round %d: unknown relay child %d", e, id)
			}
			rr.reported[id] = true
		}
		if len(rs.Merged) > 0 {
			sk := r.wide.Clone()
			if err := sk.UnmarshalBinary(rs.Merged); err != nil {
				return fmt.Errorf("core: import relay round %d: %w", e, err)
			}
			if !r.wide.Compatible(sk) || sk.Width() != r.width {
				return fmt.Errorf("core: import relay round %d: sketch does not match the relay shape", e)
			}
			rr.merged = sk
		}
		pending[e] = rr
	}
	r.forwarded = st.Forwarded
	r.lastEpoch = lastEpoch
	r.pending = pending
	return nil
}
