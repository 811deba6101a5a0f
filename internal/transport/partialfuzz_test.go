package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
)

// FuzzPartialCellIndex feeds the indexed partial-cell reader hostile
// cells: 8 bytes of flow id, then a partial cell (appendPartialCell) for
// either indexed backend at the fuzz shapes (rSkt2 16×4, CountMin 2×16).
// Reading the cell's body as a stored partial (logSource.storedPartial)
// and, when that accepts it, a flow's projection must never panic and
// must allocate only a bounded amount, whatever the index or the
// encoding claims; the projection's own check turns a block that does
// not end where the next index entry says into an error. When the index
// is the one the encoding gives and the encoding decodes, the body must
// be accepted and the projection must equal the decoded sketch's.
func FuzzPartialCellIndex(f *testing.F) {
	for _, seed := range fuzzPartialSeeds(f) {
		f.Add(seed)
	}
	spread := fuzzPartialEngine[*rskt.Sketch](f, KindSpread)
	size := fuzzPartialEngine[*countmin.Sketch](f, KindSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		flow, blob := binary.LittleEndian.Uint64(data), data[8:]
		checkPartialCellRead(t, spread, flow, blob)
		checkPartialCellRead(t, size, flow, blob)
	})
}

// fuzzPartialEngine builds a center engine of the fuzz shapes: one child
// at width 16, rSkt2 with m = 4 or CountMin with d = 2, seed 5.
func fuzzPartialEngine[S core.Sketch[S]](f *testing.F, kind Kind) *engineCenter[S] {
	b, err := backendFor(kind, 4, 2, 5, true)
	if err != nil {
		f.Fatal(err)
	}
	ce, err := b.center(3, map[int]int{0: 16})
	if err != nil {
		f.Fatal(err)
	}
	return ce.(*engineCenter[S])
}

// maxPartialReadBytes bounds what one stored partial read may allocate:
// the partial, a width-1 projection and a few index words, far below any
// size a hostile header or index could name.
const maxPartialReadBytes = 16 << 10

func checkPartialCellRead[S core.Sketch[S]](t *testing.T, e *engineCenter[S], flow uint64, blob []byte) {
	_, body, err := parsePartialCell(blob)
	if err != nil {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, ok := e.source(nil).storedPartial(body)
	var proj S
	if ok {
		proj, err = p.Project(flow)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > maxPartialReadBytes {
		t.Fatalf("stored partial read allocated %d bytes", n)
	}
	enc, idx, splitErr := splitPartialBody(body)
	if splitErr != nil {
		return
	}
	want, idxErr := e.cells.index(nil, enc)
	full := e.ctr.NewPartialSketch()
	if idxErr != nil || !bytes.Equal(want, idx) || full.UnmarshalBinary(enc) != nil {
		return
	}
	if !ok || err != nil {
		t.Fatalf("true index refused: accepted %v, projection error %v", ok, err)
	}
	got, _ := proj.MarshalBinaryCompact()
	ref, _ := full.Project(flow).MarshalBinaryCompact()
	if !bytes.Equal(got, ref) {
		t.Fatalf("indexed projection %x, decoded projection %x", got, ref)
	}
}

// fuzzPartialSeeds are the committed inputs for FuzzPartialCellIndex:
// real cells of both backends, then truncated, index-shifted and
// block-resized variants.
func fuzzPartialSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	cell := func(enc []byte, index func([]byte, []byte) ([]byte, error)) []byte {
		idx, err := index(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		return appendPartialCell([]int{0}, enc, idx)
	}
	flow := binary.LittleEndian.AppendUint64(nil, 7)
	var seeds [][]byte
	for _, c := range [][]byte{
		cell(fuzzSpreadSketchBytes(t), rskt.AppendIndex),
		cell(fuzzSizeSketchBytes(t), countmin.AppendIndex),
	} {
		shifted := bytes.Clone(c)
		shifted[len(shifted)-5]++ // the last index word: a sentinel or an entry
		resized := bytes.Clone(c)
		binary.LittleEndian.PutUint32(resized[len(resized)-len(c)/4:], 1<<31)
		seeds = append(seeds,
			append(bytes.Clone(flow), c...),
			append(bytes.Clone(flow), c[:len(c)-3]...),
			append(bytes.Clone(flow), shifted...),
			append(bytes.Clone(flow), resized...))
	}
	return seeds
}
