package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// CenterState is the durable form of a center's window store: what a
// center must carry across a restart to keep answering aggregate requests
// for epochs that predate the new process. Export/Import move the whole
// store at once — they are checkpoint primitives, not incremental
// replication. Sketches travel as opaque byte blobs in their one binary
// encoding (MarshalBinaryCompact); the transport layer writes the state
// into its checkpoint section, maps in ascending key order (see
// internal/transport). A non-additive design keeps no push bookkeeping, so
// its ChainBroken, SentAgg and SentEnh stay empty.
type CenterState struct {
	// LastEpoch[point] is the most recent epoch the point uploaded.
	LastEpoch map[int]int64
	// ChainBroken lists, in ascending order, the cumulative-mode points
	// whose recovery chain lost an epoch and awaits a rebase upload.
	ChainBroken []int
	// Uploads[point][epoch] is the stored single-epoch measurement: the
	// uploaded B sketch, or the recovered delta in cumulative mode.
	Uploads map[int]map[int64][]byte
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
// sketch must have the point's declared shape. Caller holds c.mu.
func (c *Center[S]) importSketchMapsLocked(src map[int]map[int64][]byte) (map[int]map[int64]S, error) {
	out := make(map[int]map[int64]S, len(c.protos))
	for id := range c.protos {
		out[id] = make(map[int64]S)
	}
	for id, per := range src {
		if err := c.knownLocked(id); err != nil {
			return nil, err
		}
		for e, data := range per {
			sk, err := decodeAs(c.protos[id], data)
			if err != nil {
				return nil, fmt.Errorf("core: import point %d epoch %d: %w", id, e, err)
			}
			out[id][e] = sk
		}
	}
	return out, nil
}

// ExportState snapshots the center's window store. The snapshot is taken
// atomically under the center's lock.
func (c *Center[S]) ExportState() (*CenterState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &CenterState{LastEpoch: maps.Clone(c.lastEpoch)}
	for id, broken := range c.chainBroken {
		if broken {
			st.ChainBroken = append(st.ChainBroken, id)
		}
	}
	slices.Sort(st.ChainBroken)
	var err error
	if st.Uploads, err = marshalSketchMaps(c.uploads); err != nil {
		return nil, err
	}
	if !c.additive {
		return st, nil
	}
	if st.SentAgg, err = marshalSketchMaps(c.sentAgg); err != nil {
		return nil, err
	}
	if st.SentEnh, err = marshalSketchMaps(c.sentEnh); err != nil {
		return nil, err
	}
	return st, nil
}

// ImportState replaces the center's window store with a previously
// exported snapshot. Every point id must be known and every sketch must
// have the point's declared shape — a checkpoint from a differently
// configured cluster is rejected before any state is replaced. A nil state
// is a no-op.
func (c *Center[S]) ImportState(st *CenterState) error {
	if st == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.additive && (len(st.ChainBroken) > 0 || len(st.SentAgg) > 0 || len(st.SentEnh) > 0) {
		return fmt.Errorf("core: import: the %s design keeps no push bookkeeping", c.design)
	}
	last, err := c.importClockLocked(st.LastEpoch)
	if err != nil {
		return err
	}
	if err := c.knownLocked(st.ChainBroken...); err != nil {
		return err
	}
	var stores [3]map[int]map[int64]S // uploads, sentAgg, sentEnh
	for i, src := range [3]map[int]map[int64][]byte{st.Uploads, st.SentAgg, st.SentEnh} {
		if stores[i], err = c.importSketchMapsLocked(src); err != nil {
			return err
		}
	}
	c.uploads, c.lastEpoch = stores[0], last
	c.minHeld = math.MinInt64 // the next trim walks and recomputes it
	if c.additive {
		c.sentAgg, c.sentEnh = stores[1], stores[2]
		c.chainBroken = make(map[int]bool, len(st.ChainBroken))
		for _, id := range st.ChainBroken {
			c.chainBroken[id] = true
		}
	}
	c.resetJoinLocked()
	return c.rejoinLocked()
}

// rejoinLocked rebuilds every round from the imported store: each held
// cell joins its epoch and reports its point. In cumulative mode a point
// also reports a window epoch it holds no cell of once its clock is past
// it: its upload was gap-dropped, or its chain moved on.
func (c *Center[S]) rejoinLocked() error {
	for id, per := range c.uploads {
		for e, cell := range per {
			if _, err := c.joinLocked(id, e, cell); err != nil {
				return err
			}
		}
	}
	hi := c.maxEpochLocked()
	for e := max(1, hi-int64(c.windowN)-1); e <= hi && c.mode == ModeCumulative; e++ {
		for _, id := range c.ids {
			if _, held := c.uploads[id][e]; !held && c.lastEpoch[id] >= e {
				j := c.round(e)
				j.bare = append(j.bare, id)
			}
		}
	}
	return nil
}
