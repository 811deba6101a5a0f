package core

import (
	"fmt"

	"repro/internal/countmin"
)

// Serializable center state: the window store a center must carry across a
// restart to keep answering aggregate requests for epochs that predate the
// new process. Export/Import move the whole store at once — they are
// checkpoint primitives, not incremental replication. Sketches travel as
// opaque byte blobs in their one binary encoding (MarshalBinaryCompact),
// which the transport layer frames (see internal/transport). The map
// marshaling/unmarshaling machinery is generic; the state structs keep
// their design-specific (gob-frozen) shapes.

// SpreadCenterState is the durable form of a SpreadCenter's window store:
// every retained per-point per-epoch upload plus the upload sequence
// positions.
type SpreadCenterState struct {
	// LastEpoch[point] is the most recent epoch the point uploaded.
	LastEpoch map[int]int64
	// Uploads[point][epoch] is the marshaled B sketch the point uploaded
	// at that epoch's end.
	Uploads map[int]map[int64][]byte
}

// SizeCenterState is the durable form of a SizeCenter's recovery state:
// the per-epoch deltas plus everything the cumulative-mode inversion needs
// to keep subtracting correctly after a restart (sent pushes, sequence
// positions, chain-break marks).
type SizeCenterState struct {
	// LastEpoch[point] is the last upload epoch per point.
	LastEpoch map[int]int64
	// ChainBroken marks cumulative-mode points whose recovery chain lost
	// an epoch and awaits a rebase upload.
	ChainBroken map[int]bool
	// Deltas[point][epoch] is the recovered single-epoch measurement.
	Deltas map[int]map[int64][]byte
	// SentAgg[point][epoch] is the aggregate pushed to point during that
	// epoch, exactly as sent.
	SentAgg map[int]map[int64][]byte
	// SentEnh[point][epoch] is the enhancement pushed during that epoch.
	SentEnh map[int]map[int64][]byte
}

// marshalSketchMaps marshals a per-point per-epoch sketch store into the
// durable blob form.
func marshalSketchMaps[S Sketch[S]](src map[int]map[int64]S) (map[int]map[int64][]byte, error) {
	out := make(map[int]map[int64][]byte, len(src))
	for id, per := range src {
		m := make(map[int64][]byte, len(per))
		for e, sk := range per {
			data, err := sk.MarshalBinaryCompact()
			if err != nil {
				return nil, fmt.Errorf("core: export point %d epoch %d: %w", id, e, err)
			}
			m[e] = data
		}
		out[id] = m
	}
	return out, nil
}

// importSketchMapsLocked rebuilds a per-point per-epoch sketch store from
// its durable blob form, decoding each blob into a clone of the point's
// prototype: every point id must be known to the center and every decoded
// sketch must pass check. label prefixes decode errors ("" or "delta " /
// "sent aggregate " / ...). Caller holds c.mu.
func (c *Center[S]) importSketchMapsLocked(src map[int]map[int64][]byte, label string,
	check func(id int, epoch int64, sk S) error) (map[int]map[int64]S, error) {
	out := make(map[int]map[int64]S, len(c.protos))
	for id := range c.protos {
		out[id] = make(map[int64]S)
	}
	for id, per := range src {
		if _, ok := c.protos[id]; !ok {
			return nil, fmt.Errorf("core: import: unknown %s point %d", c.design, id)
		}
		for e, data := range per {
			sk := c.protos[id].Clone()
			if err := sk.UnmarshalBinary(data); err != nil {
				return nil, fmt.Errorf("core: import %spoint %d epoch %d: %w", label, id, e, err)
			}
			if err := check(id, e, sk); err != nil {
				return nil, err
			}
			out[id][e] = sk
		}
	}
	return out, nil
}

// ExportState snapshots the center's window store. The snapshot is taken
// atomically under the center's lock.
func (c *SpreadCenter[S]) ExportState() (*SpreadCenterState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &SpreadCenterState{
		LastEpoch: make(map[int]int64, len(c.lastEpoch)),
	}
	for id, e := range c.lastEpoch {
		st.LastEpoch[id] = e
	}
	var err error
	if st.Uploads, err = marshalSketchMaps(c.uploads); err != nil {
		return nil, err
	}
	return st, nil
}

// ImportState replaces the center's window store with a previously exported
// snapshot. Every point id must be known to the center and every sketch
// must match the point's declared shape — a checkpoint from a differently
// configured cluster is rejected before any state is replaced. A nil state
// is a no-op.
func (c *SpreadCenter[S]) ImportState(st *SpreadCenterState) error {
	if st == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	uploads, err := c.importSketchMapsLocked(st.Uploads, "", func(id int, e int64, sk S) error {
		proto := c.protos[id]
		if !proto.Compatible(sk) || proto.Width() != sk.Width() {
			return fmt.Errorf("core: import point %d epoch %d: sketch does not match the declared shape", id, e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lastEpoch := make(map[int]int64, len(st.LastEpoch))
	for id, e := range st.LastEpoch {
		if _, ok := c.protos[id]; !ok {
			return fmt.Errorf("core: import: unknown spread point %d", id)
		}
		lastEpoch[id] = e
	}
	c.uploads = uploads
	c.lastEpoch = lastEpoch
	c.resetJoinLocked()
	return nil
}

// ExportState snapshots the center's recovery state atomically.
func (c *SizeCenter) ExportState() (*SizeCenterState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &SizeCenterState{
		LastEpoch:   make(map[int]int64, len(c.lastEpoch)),
		ChainBroken: make(map[int]bool, len(c.chainBroken)),
	}
	for id, e := range c.lastEpoch {
		st.LastEpoch[id] = e
	}
	for id, broken := range c.chainBroken {
		if broken {
			st.ChainBroken[id] = true
		}
	}
	var err error
	if st.Deltas, err = marshalSketchMaps(c.uploads); err != nil {
		return nil, err
	}
	if st.SentAgg, err = marshalSketchMaps(c.sentAgg); err != nil {
		return nil, err
	}
	if st.SentEnh, err = marshalSketchMaps(c.sentEnh); err != nil {
		return nil, err
	}
	return st, nil
}

// ImportState replaces the center's recovery state with a previously
// exported snapshot. Every point id must be known and every sketch must
// carry the point's declared parameters — a checkpoint from a differently
// configured cluster is rejected before any state is replaced. A nil state
// is a no-op.
func (c *SizeCenter) ImportState(st *SizeCenterState) error {
	if st == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	check := func(what string) func(int, int64, *countmin.Sketch) error {
		return func(id int, e int64, sk *countmin.Sketch) error {
			if sk.Params() != c.params[id] {
				return fmt.Errorf("core: import %s point %d epoch %d: parameters %+v, want %+v",
					what, id, e, sk.Params(), c.params[id])
			}
			return nil
		}
	}
	deltas, err := c.importSketchMapsLocked(st.Deltas, "delta ", check("delta"))
	if err != nil {
		return err
	}
	sentAgg, err := c.importSketchMapsLocked(st.SentAgg, "sent aggregate ", check("sent aggregate"))
	if err != nil {
		return err
	}
	sentEnh, err := c.importSketchMapsLocked(st.SentEnh, "sent enhancement ", check("sent enhancement"))
	if err != nil {
		return err
	}
	lastEpoch := make(map[int]int64, len(st.LastEpoch))
	for id, e := range st.LastEpoch {
		if _, ok := c.params[id]; !ok {
			return fmt.Errorf("core: import: unknown size point %d", id)
		}
		lastEpoch[id] = e
	}
	chainBroken := make(map[int]bool, len(st.ChainBroken))
	for id, broken := range st.ChainBroken {
		if _, ok := c.params[id]; !ok {
			return fmt.Errorf("core: import: unknown size point %d", id)
		}
		if broken {
			chainBroken[id] = true
		}
	}
	c.uploads = deltas
	c.sentAgg = sentAgg
	c.sentEnh = sentEnh
	c.lastEpoch = lastEpoch
	c.chainBroken = chainBroken
	c.resetJoinLocked()
	return nil
}
