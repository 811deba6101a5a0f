package core

import (
	"fmt"
	"slices"
	"sync"
)

// epochMerge is the per-epoch merger every node that ingests child uploads
// runs, a relay and a center alike (Papapetrou et al. and Xu run the same
// merge at every level of a hierarchy): the children's declared sketches,
// their weights and epoch clocks, one door every upload passes, and per
// epoch a join of the reported cells with its barrier. An epoch's round is
// complete once every child reported it. The node embeds the merger and
// shares its lock; what a node does with a round (a relay forwards it in
// order, a center joins windows and pushes) stays the node's.
type epochMerge[S Sketch[S]] struct {
	// mu is the node's lock: it guards the merger and the node's own state.
	mu sync.Mutex

	design  string
	windowN int

	protos  map[int]S   // zero-state prototype per child (width + shape)
	ids     []int       // the child ids in ascending order
	weights map[int]int // leaf points one upload from each child stands for (>= 1)
	wMax    int         // the maximum child width: the node's own width
	wide    S           // zero-state prototype at wMax

	// lastEpoch[child] is the most recent epoch the child uploaded; the
	// transports resynchronize reconnecting children from it.
	lastEpoch map[int]int64
	// part[e] is epoch e's round: the join of the cells reported for e and
	// the children that reported it. The node trims it with its window.
	part map[int64]*epochJoin[S]
}

// init readies the merger after validating what every node requires: a
// window of at least 3 epochs, a valid discipline, and per-child sketch
// prototypes that are non-nil and mutually compatible, with the maximum
// width a multiple of every width (power-of-two-ratio widths satisfy
// this). weights may be nil; a missing or sub-1 weight counts as 1.
func (m *epochMerge[S]) init(windowN int, protos map[int]S, weights map[int]int, cfg EngineConfig[S]) error {
	if windowN < 3 {
		return fmt.Errorf("core: window n must be >= 3, got %d", windowN)
	}
	if len(protos) == 0 {
		return fmt.Errorf("core: no measurement points")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	m.design, m.windowN = cfg.Design, windowN
	m.protos = make(map[int]S, len(protos))
	m.weights = make(map[int]int, len(protos))
	m.lastEpoch = make(map[int]int64, len(protos))
	m.part = make(map[int64]*epochJoin[S])
	for id, p := range protos {
		if IsNil(p) {
			return fmt.Errorf("core: nil sketch prototype")
		}
		if m.wMax < p.Width() {
			m.wMax, m.wide = p.Width(), p.Clone()
		}
		m.protos[id] = p.Clone()
		m.weights[id] = max(weights[id], 1)
		m.ids = append(m.ids, id)
	}
	slices.Sort(m.ids)
	for id, p := range protos {
		if !m.wide.Compatible(p) {
			return fmt.Errorf("core: the sketch of %d is incompatible with its peers", id)
		}
		if m.wMax%p.Width() != 0 {
			return fmt.Errorf("core: width %d of %d does not divide max width %d", p.Width(), id, m.wMax)
		}
	}
	return nil
}

// knownLocked refuses an id that names no child: a checkpoint from a
// differently configured node.
func (m *epochMerge[S]) knownLocked(ids ...int) error {
	for _, id := range ids {
		if _, ok := m.protos[id]; !ok {
			return fmt.Errorf("core: import: unknown %s child %d", m.design, id)
		}
	}
	return nil
}

// importClockLocked checks an imported clock's children and returns a
// copy to install.
func (m *epochMerge[S]) importClockLocked(last map[int]int64) (map[int]int64, error) {
	out := make(map[int]int64, len(last))
	for id, e := range last {
		if err := m.knownLocked(id); err != nil {
			return nil, err
		}
		out[id] = e
	}
	return out, nil
}

// decodeAs decodes data into a clone of proto, refusing a sketch of any
// other shape.
func decodeAs[S Sketch[S]](proto S, data []byte) (S, error) {
	sk := proto.Clone()
	if err := sk.UnmarshalBinary(data); err != nil {
		return sk, err
	}
	if !sameShape(proto, sk) {
		return sk, fmt.Errorf("sketch does not match the declared shape")
	}
	return sk, nil
}

// admit is the door every child upload passes: a known child, the
// child's declared shape, and the epoch rule (CheckEpoch). It advances
// the child's clock and returns the clock's previous position. Caller
// holds mu.
func (m *epochMerge[S]) admit(child int, epoch int64, up S) (int64, error) {
	proto, ok := m.protos[child]
	if !ok {
		return 0, fmt.Errorf("core: unknown %s child %d", m.design, child)
	}
	if !sameShape(proto, up) {
		return 0, fmt.Errorf("core: upload from child %d does not match its declared sketch", child)
	}
	if err := CheckEpoch(epoch, 1); err != nil {
		return 0, fmt.Errorf("core: upload from child %d: %w", child, err)
	}
	last := m.lastEpoch[child]
	m.lastEpoch[child] = max(last, epoch)
	return last, nil
}

// round returns epoch e's round, opening it on the first report.
func (m *epochMerge[S]) round(e int64) *epochJoin[S] {
	j, ok := m.part[e]
	if !ok {
		j = &epochJoin[S]{}
		m.part[e] = j
	}
	return j
}

// joinLocked joins child's cell into epoch e's round at the cell's own
// width, counting the child as a reporter, and tells whether the cell is
// the first the round joins. The cell stays the caller's: the round
// clones what it keeps.
func (m *epochMerge[S]) joinLocked(child int, e int64, cell S) (first bool, err error) {
	j := m.round(e)
	return len(j.ids) == 0, j.add(e, child, cell)
}

// completeLocked tells whether every child reported epoch e: the round
// barrier.
func (m *epochMerge[S]) completeLocked(e int64) bool {
	j, ok := m.part[e]
	return ok && len(j.ids)+len(j.bare) == len(m.ids)
}

// Complete tells whether every child reported epoch e, while its round
// is held. After a center's ImportState it names the restored rounds that
// completed before the restart, which a transport pushes again.
func (m *epochMerge[S]) Complete(e int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completeLocked(e)
}

// keepLocked drops every round outside [lo, hi].
func (m *epochMerge[S]) keepLocked(lo, hi int64) {
	for e := range m.part {
		if e < lo || e > hi {
			delete(m.part, e)
		}
	}
}

// NewSketch returns a zero sketch of child's declared shape: the target
// the child's uploads decode into, so one naming other dimensions is
// rejected before it allocates. ok is false for an unknown child.
func (m *epochMerge[S]) NewSketch(child int) (S, bool) {
	proto, ok := m.protos[child]
	if !ok {
		return proto, false
	}
	return proto.Clone(), true
}

// NewPartialSketch returns a zero sketch at the node's width: the shape
// of every merged round, which a stored partial, a relay's combined
// upload or a push from upstream decodes into.
func (m *epochMerge[S]) NewPartialSketch() S { return m.wide.Clone() }

// Width is the node's width: the maximum child width, at which every
// round merges and a relay uploads.
func (m *epochMerge[S]) Width() int { return m.wMax }

// LastEpoch returns the most recent epoch the child has uploaded (0 if
// none).
func (m *epochMerge[S]) LastEpoch(child int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastEpoch[child]
}

// MaxEpoch returns the most recent epoch any child has uploaded (0 if
// none) — the subtree's epoch clock as the node sees it.
func (m *epochMerge[S]) MaxEpoch() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.maxEpochLocked()
}

func (m *epochMerge[S]) maxEpochLocked() int64 {
	var hi int64
	for _, e := range m.lastEpoch {
		hi = max(hi, e)
	}
	return hi
}

// Weight returns the leaf count one upload from the child represents
// (>= 1).
func (m *epochMerge[S]) Weight(child int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.weightLocked(child)
}

func (m *epochMerge[S]) weightLocked(child int) int { return max(m.weights[child], 1) }

// TotalWeight is the number of leaf measurement points the node's
// children represent: the sum of their weights — what a relay's upstream
// weights each combined upload by.
func (m *epochMerge[S]) TotalWeight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for _, w := range m.weights {
		total += w
	}
	return total
}

// epochPartial is one epoch's spatial join at the maximum width and the
// sorted ids it joined. have is false for an epoch with no cells.
type epochPartial[S Sketch[S]] struct {
	sk   S
	have bool
	ids  []int
}

// epochJoin joins one epoch's cells as they come: each cell merges into
// the group of its native width, and each group expands once to the
// node's width when the join is read — fewer expansions, same register
// bits, in any cell order. A read freezes the join: its partial is shared
// from then on, so a later cell thaws it into a clone. As a node's round
// (epochMerge.part) it also counts the children that reported the epoch:
// the ids its cells came from, and bare ones that joined no cell. The
// historical replay runs the same join over the log (computeEpochPartial).
type epochJoin[S Sketch[S]] struct {
	epochPartial[S]
	groups []S // one per width; every group is a clone
	frozen bool
	// bare lists the children that reported the epoch without a cell: a
	// center's gap-dropped cumulative upload, or one a restore infers.
	bare []int
}

// add joins point id's cell into its width group. The cell stays the
// caller's. A frozen join takes the cell into a clone of its partial:
// the frozen sketch and ids are shared with whoever read them.
func (j *epochJoin[S]) add(e int64, id int, cell S) error {
	if j.frozen {
		if j.have {
			j.groups = []S{j.sk.Clone()}
		}
		j.epochPartial, j.frozen = epochPartial[S]{ids: slices.Clone(j.ids)}, false
	}
	if i := slices.IndexFunc(j.groups, func(g S) bool { return g.Width() == cell.Width() }); i < 0 {
		j.groups = append(j.groups, cell.Clone())
	} else if err := j.groups[i].Merge(cell); err != nil {
		return fmt.Errorf("core: temporal join point %d epoch %d: %w", id, e, err)
	}
	j.ids = append(j.ids, id)
	return nil
}

// join merges the groups, each expanded to width w, and leaves the join
// open: no group is written. ok is false when the join holds no cell. The
// result is a group itself when that group is the only one and already
// at w; otherwise it starts from a fresh expansion.
func (j *epochJoin[S]) join(e int64, w int) (sk S, ok bool, err error) {
	var atW S
	for _, g := range j.groups {
		if g.Width() == w {
			atW = g
			continue
		}
		ex, err := g.ExpandTo(w)
		if err != nil {
			return sk, false, fmt.Errorf("core: expand epoch %d width %d: %w", e, g.Width(), err)
		}
		if IsNil(sk) {
			sk = ex
		} else if err := sk.Merge(ex); err != nil {
			return sk, false, fmt.Errorf("core: spatial join epoch %d: %w", e, err)
		}
	}
	switch {
	case IsNil(atW):
	case IsNil(sk):
		sk = atW
	default:
		if err := sk.Merge(atW); err != nil {
			return sk, false, fmt.Errorf("core: spatial join epoch %d: %w", e, err)
		}
	}
	return sk, !IsNil(sk), nil
}

// read freezes the join and returns its partial at wMax.
func (j *epochJoin[S]) read(e int64, wMax int) (epochPartial[S], error) {
	if j.frozen {
		return j.epochPartial, nil
	}
	sk, have, err := j.join(e, wMax)
	if err != nil {
		return j.epochPartial, err
	}
	slices.Sort(j.ids)
	j.sk, j.have, j.groups, j.frozen = sk, have, nil, true
	return j.epochPartial, nil
}
