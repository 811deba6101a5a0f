package transport

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/durable"
)

// Checkpoints: every node saves its recovery state as a durable container
// (internal/durable) of sections, each built with the frame module's
// appender and parsed with its bounds-checked reader (frame.go). Maps are
// written in ascending key order, so a state has exactly one byte form.
//
// A point writes three sections at each epoch boundary:
//
//	"state"   — the TQST2 epoch and B/C/C' sketches (state.go)
//	"meta"    — the push-lineage flags, staged and current coverage,
//	            topology, and the rebase marker (state.go)
//	"uploads" — the retransmit buffer, sent history included, so a
//	            restarted point can replay epochs a restarted center lost
//
// state and meta are one core.PointState, written from one ExportState
// and restored by one ImportState: a re-pushed aggregate is applied or
// rejected exactly as the pre-crash process would have, and queries
// report the coverage the window really has. A center writes one
// "center" section (centerstate.go) and a relay one "relay" section
// (relaystate.go); both open with the topology header below.

const pointUploadsVersion = 1

// ckptMagic opens every center and relay section.
var ckptMagic = []byte("TQCK1")

// topology is the configuration a center or relay checkpoint was written
// under. A node restores only a checkpoint written under its own.
type topology struct {
	kind          Kind
	windowN, m, d int
	seed          uint64
	shard         int
	// node is the relay's id (0 at a center); delta the center's
	// DeltaUploads (false at a relay).
	node  int
	delta bool
	// widths and weights are per child; a missing or zero weight means 1.
	widths, weights map[int]int
}

func (a *appender) topology(t topology) {
	a.raw(ckptMagic)
	a.kind(t.kind)
	a.u32(t.windowN)
	a.u32(t.m)
	a.u32(t.d)
	a.u64(t.seed)
	a.u32(t.shard)
	a.u32(t.node)
	a.boolean(t.delta)
	a.u32(len(t.widths))
	for _, id := range sortedKeys(t.widths) {
		a.u32(id)
		a.u32(t.widths[id])
		a.u32(normWeight(t.weights[id]))
	}
}

// topology reads the header. Input that is not a checkpoint section of
// this format fails here, gob-era sections with errGob.
func (r *reader) topology() topology {
	if m := r.take(len(ckptMagic)); r.err == nil && !bytes.Equal(m, ckptMagic) {
		if looksLikeGob(r.b) {
			r.err = errGob
		} else {
			r.fail("section magic %q, want %q", m, ckptMagic)
		}
	}
	t := topology{kind: r.kind(), windowN: r.u32(), m: r.u32(), d: r.u32(), seed: r.u64(),
		shard: r.u32(), node: r.u32(), delta: r.boolean()}
	n := r.count(12)
	t.widths, t.weights = make(map[int]int, n), make(map[int]int, n)
	for i := 0; i < n; i++ {
		id := r.u32()
		t.widths[id], t.weights[id] = r.u32(), r.u32()
	}
	return t
}

// canonical fails unless data, which parsed without error, is exactly
// what encode writes for the parsed state. Writers sort every map and
// normalize every weight, so this one comparison rejects keys out of
// order or repeated and zero weights, and a section has one byte form.
func canonical(data []byte, encode func() []byte) error {
	if !bytes.Equal(encode(), data) {
		return errors.New("section is not in canonical form (map keys out of order or repeated, or a zero weight)")
	}
	return nil
}

// match fails unless t, read from a checkpoint, is the configured
// topology. Comparing the two encodings covers every field at once.
func (t topology) match(configured topology) error {
	var got, want appender
	got.topology(t)
	want.topology(configured)
	if !bytes.Equal(got.b, want.b) {
		return fmt.Errorf("checkpoint topology %+v does not match the configured %+v", t, configured)
	}
	return nil
}

// epochs writes a per-node epoch map.
func (a *appender) epochs(m map[int]int64) {
	a.u32(len(m))
	for _, id := range sortedKeys(m) {
		a.u32(id)
		a.i64(m[id])
	}
}

func (r *reader) epochs() map[int]int64 {
	n := r.count(12)
	m := make(map[int]int64, n)
	for i := 0; i < n; i++ {
		id := r.u32()
		m[id] = r.i64()
	}
	return m
}

// ids writes an id list, ascending.
func (a *appender) ids(ids []int) {
	a.u32(len(ids))
	for _, id := range ids {
		a.u32(id)
	}
}

func (r *reader) ids() []int {
	ids := make([]int, r.count(4))
	for i := range ids {
		ids[i] = r.u32()
	}
	return ids
}

// sketches writes a per-node per-epoch store of encoded sketches.
func (a *appender) sketches(m map[int]map[int64][]byte) {
	a.u32(len(m))
	for _, id := range sortedKeys(m) {
		per := m[id]
		a.u32(id)
		a.u32(len(per))
		for _, e := range sortedKeys(per) {
			a.i64(e)
			a.blob(per[e])
		}
	}
}

func (r *reader) sketches() map[int]map[int64][]byte {
	n := r.count(8)
	m := make(map[int]map[int64][]byte, n)
	for i := 0; i < n; i++ {
		id := r.u32()
		k := r.count(12)
		per := make(map[int64][]byte, k)
		for j := 0; j < k; j++ {
			e := r.i64()
			per[e] = r.blob()
		}
		m[id] = per
	}
	return m
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// saveCheckpointLocked writes one checkpoint generation. Failures are
// recorded (LastCheckpointErr), not returned: a broken disk must not stop
// the epoch clock. Callers must hold c.mu.
func (c *PointClient) saveCheckpointLocked() {
	if c.ckpt == nil {
		return
	}
	sections, err := c.checkpointSectionsLocked()
	if err == nil {
		err = c.ckpt.Save(sections)
	}
	c.errMu.Lock()
	c.ckptErr = err
	c.errMu.Unlock()
	if err == nil {
		c.checkpoints.Add(1)
	}
}

func (c *PointClient) checkpointSectionsLocked() ([]durable.Section, error) {
	state, meta, err := c.eng.saveState(c.needRebase)
	if err != nil {
		return nil, err
	}
	var u appender
	u.uploads(c.up.pending)
	return []durable.Section{
		{Name: "state", Data: state},
		{Name: "meta", Data: meta},
		{Name: "uploads", Data: u.b},
	}, nil
}

// uploads writes a retransmit buffer, sent history included: the point's
// "uploads" section, and the relay's buffer inside its section. Entries
// carry no node id; the reader restores the owner's.
func (a *appender) uploads(pending []pendingUpload) {
	a.u8(pointUploadsVersion)
	a.u32(len(pending))
	for _, p := range pending {
		a.i64(p.up.Epoch)
		a.flags(p.attempted, p.sent, p.up.AggApplied, p.up.EnhApplied, p.up.Rebase)
		a.blob(p.up.Sketch)
	}
}

// uploads reads what appender.uploads wrote, as node id's buffer.
func (r *reader) uploads(id int) []pendingUpload {
	if v := r.u8(); r.err == nil && v != pointUploadsVersion {
		r.fail("uploads version %d, want %d", v, pointUploadsVersion)
	}
	// Every entry takes at least its 13-byte header, so the bytes left
	// bound the count before the count sizes an allocation.
	n := r.count(13)
	pending := make([]pendingUpload, 0, n)
	for i := 0; i < n; i++ {
		epoch, f, payload := r.i64(), r.flags(5), r.blob()
		pending = append(pending, pendingUpload{
			up: Upload{
				Point:      id,
				Epoch:      epoch,
				Sketch:     payload,
				AggApplied: f&(1<<2) != 0,
				EnhApplied: f&(1<<3) != 0,
				Rebase:     f&(1<<4) != 0,
			},
			attempted: f&(1<<0) != 0,
			sent:      f&(1<<1) != 0,
		})
	}
	return pending
}

// restoreCheckpoint rebuilds the point from a loaded checkpoint: the
// retransmit buffer is parsed first, then the state and meta sections are
// parsed and installed in one step (loadState), then the buffer and the
// rebase marker are installed. A malformed checkpoint fails DialPoint
// without touching the point. Called from DialPoint before the first
// connect.
func (c *PointClient) restoreCheckpoint(sections []durable.Section) error {
	bySection := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		bySection[sec.Name] = sec.Data
	}
	for _, name := range []string{"state", "meta", "uploads"} {
		if _, ok := bySection[name]; !ok {
			return fmt.Errorf("checkpoint has no %s section", name)
		}
	}
	u := reader{b: bySection["uploads"]}
	pending := u.uploads(c.cfg.Point)
	if err := u.done(); err != nil {
		return fmt.Errorf("malformed uploads section: %w", err)
	}
	rebase, err := c.eng.loadState(bySection["state"], bySection["meta"])
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.needRebase = rebase
	c.up.pending = pending
	c.mu.Unlock()
	return nil
}
