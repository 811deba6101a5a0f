package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// scratchSource is an EpochSource that lends every cell of one width the
// same scratch sketch, as the epoch log's pooled decode does: a partial
// that kept a visited sketch would change when the next cell, or the
// next caller, decodes into it.
type scratchSource[S Sketch[S]] struct {
	cells   map[int]S // point -> the epoch's cell
	scratch map[int]S // width -> the sketch lent to visit
}

func (s scratchSource[S]) Cell(point int, _ int64) (S, bool, error) {
	sk, ok := s.cells[point]
	if ok {
		sk = sk.Clone()
	}
	return sk, ok, nil
}

func (s scratchSource[S]) EpochCells(_ int64, points []int, visit func(int, S) error) error {
	for _, id := range points {
		cell, ok := s.cells[id]
		if !ok {
			continue
		}
		sc := s.scratch[cell.Width()]
		if err := sc.CopyFrom(cell); err != nil {
			return err
		}
		if err := visit(id, sc); err != nil {
			return err
		}
	}
	return nil
}

// TestEpochPartialDoesNotAliasCells holds the per-epoch partial to
// owning its sketch: once built, mutating the stored uploads it joined
// (the live center) or the decode scratch it was lent (the replay) must
// leave its bytes unchanged. Width groups already at the maximum width
// join without an ExpandTo copy, so only the group's own clone stands
// between the partial and the cell.
func TestEpochPartialDoesNotAliasCells(t *testing.T) {
	const n, w, e = 4, 16, int64(3)
	// The widest point comes first, so its group seeds the partial.
	for _, widths := range [][]int{{w, w, w}, {2 * w, w, 2 * w}, {4 * w, w, 2 * w}} {
		t.Run(fmt.Sprintf("size-%v", widths), func(t *testing.T) {
			params := map[int]countmin.Params{}
			for id, pw := range widths {
				params[id] = countmin.Params{D: 3, W: pw, Seed: 4}
			}
			ctr, err := NewSizeCenter(n, params, SizeModeDelta)
			if err != nil {
				t.Fatal(err)
			}
			checkPartialOwnsSketch(t, ctr.Center, e)
		})
		t.Run(fmt.Sprintf("spread-%v", widths), func(t *testing.T) {
			params := map[int]rskt.Params{}
			for id, pw := range widths {
				params[id] = rskt.Params{W: pw, M: 16, Seed: 4}
			}
			ctr, err := NewSpreadCenter(n, params)
			if err != nil {
				t.Fatal(err)
			}
			checkPartialOwnsSketch(t, ctr.Center, e)
		})
	}
}

func checkPartialOwnsSketch[S Sketch[S]](t *testing.T, c *Center[S], e int64) {
	t.Helper()
	record := func(sk S, salt uint64) {
		for f := uint64(0); f < 40; f++ {
			for i := uint64(0); i < 6; i++ {
				sk.Record(f, f<<16|i+salt)
			}
		}
	}
	for _, id := range c.ids {
		up := c.protos[id].Clone()
		record(up, uint64(id)*1000)
		if err := c.ReceiveMeta(id, e, up, UploadMeta{Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}

	// The live center: building the partial leaves the stored uploads
	// alone, and mutating them afterwards leaves the partial alone.
	stored := map[int][]byte{}
	for _, id := range c.ids {
		stored[id] = compactBytes(t, c.uploads[id][e])
	}
	live, ids, ok, err := c.MarshalPartial(e, S.MarshalBinaryCompact)
	if err != nil || !ok {
		t.Fatalf("MarshalPartial: ok=%v err=%v", ok, err)
	}
	for _, id := range c.ids {
		if !bytes.Equal(compactBytes(t, c.uploads[id][e]), stored[id]) {
			t.Fatalf("building the partial changed point %d's stored upload", id)
		}
	}
	if fmt.Sprint(ids) != fmt.Sprint(c.ids) {
		t.Fatalf("partial joined ids %v, want %v", ids, c.ids)
	}
	c.mu.Lock()
	p := c.part[e]
	for _, id := range c.ids {
		record(c.uploads[id][e], 1<<40)
	}
	c.mu.Unlock()
	if got := compactBytes(t, p.sk); !bytes.Equal(got, live) {
		t.Fatal("mutating the stored uploads changed the live partial")
	}

	// The replay: clobber the lent scratch after the partial is built.
	src := scratchSource[S]{cells: map[int]S{}, scratch: map[int]S{}}
	for _, id := range c.ids {
		cell := c.protos[id].Clone()
		record(cell, uint64(id)*1000)
		src.cells[id] = cell
		src.scratch[cell.Width()] = cell.Clone()
	}
	rp, err := computeEpochPartial(e, c.ids, c.weights, c.wMax, HistorySource[S](src))
	if err != nil {
		t.Fatal(err)
	}
	want := compactBytes(t, rp.sk)
	if !bytes.Equal(want, live) {
		t.Fatal("the replayed partial differs from the live one over the same cells")
	}
	for _, sc := range src.scratch {
		record(sc, 1<<41)
	}
	for _, cell := range src.cells {
		record(cell, 1<<42)
	}
	if got := compactBytes(t, rp.sk); !bytes.Equal(got, want) {
		t.Fatal("mutating the decode scratch changed the replayed partial")
	}
}
