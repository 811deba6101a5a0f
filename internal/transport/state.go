package transport

import (
	"bytes"
	"fmt"

	"repro/internal/core"
)

// Point state: the point's core.PointState, written as two sections of
// its checkpoint so a restart loses neither the current window nor its
// lineage.
//
//	"state" — the TQST2 magic + kind byte + epoch + length-prefixed sketch
//	          blobs in their one binary encoding (B/C/C' for spread,
//	          [B]/C/C' for size with a presence flag for B). Any other
//	          magic, the retired TQST1 included, is refused, and so are a
//	          design kind or sketch shape other than the point's.
//	"meta"  — a version byte, the topology (points, window n), the flags
//	          byte (aggregate, previous-epoch aggregate, enhancement and
//	          backfill merged; the client's rebase marker), the staged
//	          aggregate's coverage count and the current coverage.
//
// Both sections come from one ExportState and go back through one
// ImportState, so no restore installs the sketches without their lineage.

const pointMetaVersion = 1

var stateMagic = []byte("TQST2")

// stateKind is the TQST2 kind byte: 'z' for the additive (size) framing,
// which writes a B-presence byte because cumulative mode keeps no B
// sketch, 's' for the spread framing, which always has all three sketches.
func (e *enginePoint[S]) stateKind() byte {
	if e.additive {
		return 'z'
	}
	return 's'
}

func (e *enginePoint[S]) saveState(rebase bool) (state, meta []byte, err error) {
	st := e.pt.ExportState()
	var a appender
	a.raw(stateMagic)
	a.u8(e.stateKind())
	a.i64(st.Epoch)
	sketches := []S{st.B, st.C, st.CP}
	if e.additive {
		hasB := !core.IsNil(st.B)
		a.boolean(hasB)
		if !hasB {
			sketches = sketches[1:]
		}
	}
	for _, sk := range sketches {
		data, err := sk.MarshalBinaryCompact()
		if err != nil {
			return nil, nil, err
		}
		a.blob(data)
	}
	var m appender
	m.u8(pointMetaVersion)
	m.u32(st.TopoPoints)
	m.u32(st.TopoN)
	m.flags(st.AggApplied, st.AggAppliedPrev, st.EnhApplied, st.Backfilled, rebase)
	m.i64(int64(st.CovMerged))
	m.i64(int64(st.Cov.EpochsMerged))
	m.i64(int64(st.Cov.EpochsExpected))
	return a.b, m.b, nil
}

func (e *enginePoint[S]) loadState(state, meta []byte) (rebase bool, err error) {
	var st core.PointState[S]
	r := reader{b: state}
	if m := r.take(len(stateMagic)); r.err == nil && !bytes.Equal(m, stateMagic) {
		return false, fmt.Errorf("transport: state magic %q, want %q", m, stateMagic)
	}
	if k := r.u8(); r.err == nil && k != e.stateKind() {
		return false, fmt.Errorf("transport: state kind %q does not match the point's design", k)
	}
	st.Epoch = r.i64()
	blobs := make([][]byte, 3)
	if e.additive && !r.boolean() {
		blobs = blobs[1:]
	}
	for i := range blobs {
		blobs[i] = r.blob()
	}
	if err := r.done(); err != nil {
		return false, fmt.Errorf("transport: read state: %w", err)
	}

	m := reader{b: meta}
	if v := m.u8(); m.err == nil && v != pointMetaVersion {
		return false, fmt.Errorf("meta section version %d, want %d", v, pointMetaVersion)
	}
	st.TopoPoints, st.TopoN = m.u32(), m.u32()
	flags := m.flags(5)
	st.AggApplied, st.AggAppliedPrev = flags&(1<<0) != 0, flags&(1<<1) != 0
	st.EnhApplied, st.Backfilled = flags&(1<<2) != 0, flags&(1<<3) != 0
	st.CovMerged = int(m.i64())
	st.Cov = core.Coverage{EpochsMerged: int(m.i64()), EpochsExpected: int(m.i64())}
	if err := m.done(); err != nil {
		return false, fmt.Errorf("malformed meta section: %w", err)
	}

	sketches := make([]S, 3)
	for i, data := range blobs {
		sk, err := decodeFor(e.scratch.fresh, e.pt.ID(), data)
		if err != nil {
			return false, err
		}
		sketches[3-len(blobs)+i] = sk
	}
	st.B, st.C, st.CP = sketches[0], sketches[1], sketches[2]
	if err := e.pt.ImportState(st); err != nil {
		return false, err
	}
	return flags&(1<<4) != 0, nil
}
