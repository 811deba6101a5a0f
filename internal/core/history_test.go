package core

import (
	"math"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// mapHistSource is an in-memory HistorySource over encoded cells — the
// shape the durable epoch log presents, including the encode/decode
// round trip the real path takes. Cell reads one cell, for references.
type mapHistSource[S Sketch[S]] struct {
	cells map[[2]int64][]byte
	dec   func([]byte) (S, error)
}

func (m *mapHistSource[S]) Cell(point int, epoch int64) (S, bool, error) {
	var zero S
	b, ok := m.cells[[2]int64{int64(point), epoch}]
	if !ok {
		return zero, false, nil
	}
	sk, err := m.dec(b)
	if err != nil {
		return zero, false, err
	}
	return sk, true, nil
}

// Span claims every epoch, so the replay visits each requested one
// (spannedSource reports the epochs the cells cover).
func (m *mapHistSource[S]) Span() (first, last int64, ok bool) { return 1, math.MaxInt64, true }

func (m *mapHistSource[S]) Held(first, last int64, points []int) [][]int {
	held := make([][]int, last-first+1)
	for i := range held {
		for _, id := range points {
			if _, ok := m.cells[[2]int64{int64(id), first + int64(i)}]; ok {
				held[i] = append(held[i], id)
			}
		}
	}
	return held
}

// EpochPartial never answers: the source stores no partials.
func (m *mapHistSource[S]) EpochPartial(int64, []int) (S, bool, error) {
	var zero S
	return zero, false, nil
}

func (m *mapHistSource[S]) EpochCells(epoch int64, points []int, visit func(int, S) error) error {
	for _, id := range points {
		sk, ok, err := m.Cell(id, epoch)
		if err == nil && ok {
			err = visit(id, sk)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *mapHistSource[S]) drop(point int, epoch int64) {
	delete(m.cells, [2]int64{int64(point), epoch})
}

type liveAnswer struct {
	f   uint64
	k   int64
	est float64
	cov Coverage
}

// The exactness contract behind tqquery -at: replaying the ST join from
// stored per-epoch cells must reproduce the live windowed answer bit for
// bit — long after the live window trimmed those epochs — and missing
// cells must surface as reduced coverage, never as an error or a skewed
// full-coverage claim.
func TestHistoryReplayMatchesLiveSpread(t *testing.T) {
	const (
		n, flows, epochs = 5, 6, 12
		m, seed          = 16, 7
	)
	params := map[int]rskt.Params{
		0: {W: 32, M: m, Seed: seed},
		1: {W: 32, M: m, Seed: seed},
		2: {W: 64, M: m, Seed: seed}, // mixed widths exercise ExpandTo
	}
	ctr, err := NewSpreadCenter(n, params)
	if err != nil {
		t.Fatal(err)
	}
	src := &mapHistSource[*rskt.Sketch]{
		cells: map[[2]int64][]byte{},
		dec: func(b []byte) (*rskt.Sketch, error) {
			var sk rskt.Sketch
			if err := sk.UnmarshalBinary(b); err != nil {
				return nil, err
			}
			return &sk, nil
		},
	}
	var recorded []liveAnswer
	for k := int64(1); k <= epochs; k++ {
		for id, p := range params {
			b := rskt.New(p)
			for f := uint64(0); f < flows; f++ {
				for i := 0; i < 10; i++ {
					b.Record(f, uint64(id)<<40|uint64(k)<<20|f<<8|uint64(i)%17)
				}
			}
			if err := ctr.Receive(id, k, b); err != nil {
				t.Fatal(err)
			}
			// Feed the history source exactly as the center server feeds the
			// log: the stored upload, canonically (compact) encoded.
			blob, ok, err := ctr.MarshalUpload(id, k, (*rskt.Sketch).MarshalBinaryCompact)
			if err != nil || !ok {
				t.Fatalf("MarshalUpload(%d, %d) = ok=%v err=%v", id, k, ok, err)
			}
			src.cells[[2]int64{int64(id), k}] = blob
		}
		if k < 2 {
			continue
		}
		for f := uint64(0); f < flows; f++ {
			est, cov, err := ctr.QueryWindowLive(f, k)
			if err != nil {
				t.Fatal(err)
			}
			if !cov.Full() {
				t.Fatalf("live coverage at epoch %d not full: %+v", k, cov)
			}
			recorded = append(recorded, liveAnswer{f, k, est, cov})
		}
	}

	// The live window has long trimmed the early epochs; replay must not
	// depend on them being in memory.
	if ctr.HasUpload(0, 1) {
		t.Fatal("epoch 1 should have been trimmed from the live window")
	}
	for _, want := range recorded {
		got, cov, err := ctr.QueryAtFrom(want.f, want.k, src)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want.est) {
			t.Fatalf("QueryAtFrom(f=%d, k=%d) = %v, live answer was %v", want.f, want.k, got, want.est)
		}
		if cov != want.cov {
			t.Fatalf("QueryAtFrom(f=%d, k=%d) coverage %+v, live was %+v", want.f, want.k, cov, want.cov)
		}
	}

	// Arbitrary-range replay: the full history in one window.
	_, cov, err := ctr.QueryRangeFrom(1, 1, epochs, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * epochs; cov.EpochsMerged != want || cov.EpochsExpected != want {
		t.Fatalf("QueryRangeFrom coverage %+v, want %d/%d", cov, want, want)
	}
	if _, _, err := ctr.QueryRangeFrom(1, 9, 4, src); err == nil {
		t.Fatal("QueryRangeFrom accepted an empty range")
	}

	// Honest coverage: evict one cell inside a window; the answer degrades
	// to the surviving cells, coverage says so, and there is no error.
	k := int64(epochs)
	src.drop(1, k-2)
	est, cov, err := ctr.QueryAtFrom(2, k, src)
	if err != nil {
		t.Fatal(err)
	}
	full := recorded[len(recorded)-1].cov.EpochsExpected
	if cov.EpochsExpected != full || cov.EpochsMerged != full-1 {
		t.Fatalf("post-eviction coverage %+v, want %d/%d", cov, full-1, full)
	}
	if math.IsNaN(est) {
		t.Fatal("post-eviction estimate is NaN")
	}

	// A window entirely out of retention: zero estimate, zero merged, the
	// expected count still honest.
	for id := range params {
		for e := int64(1); e <= 4; e++ {
			src.drop(id, e)
		}
	}
	est, cov, err = ctr.QueryAtFrom(0, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	if est != 0 || cov.EpochsMerged != 0 || cov.EpochsExpected == 0 {
		t.Fatalf("fully-evicted window: est=%v cov=%+v, want 0 merged with nonzero expected", est, cov)
	}
}

// sizeReplayFixture is replayFixture for the additive design: a
// delta-mode size center with mixed widths, its encoded cells, and the
// live answer recorded at every epoch boundary.
func sizeReplayFixture(t *testing.T, epochs int64) (*SizeCenter, *mapHistSource[*countmin.Sketch], []liveAnswer) {
	t.Helper()
	const (
		n, flows = 5, 6
		d, seed  = 4, 11
	)
	params := map[int]countmin.Params{
		0: {D: d, W: 32, Seed: seed},
		1: {D: d, W: 64, Seed: seed},
	}
	ctr, err := NewSizeCenter(n, params, SizeModeDelta)
	if err != nil {
		t.Fatal(err)
	}
	src := &mapHistSource[*countmin.Sketch]{
		cells: map[[2]int64][]byte{},
		dec: func(b []byte) (*countmin.Sketch, error) {
			var sk countmin.Sketch
			if err := sk.UnmarshalBinary(b); err != nil {
				return nil, err
			}
			return &sk, nil
		},
	}
	var recorded []liveAnswer
	for k := int64(1); k <= epochs; k++ {
		for id, p := range params {
			delta := countmin.New(p)
			for f := uint64(0); f < flows; f++ {
				for i := 0; i < int(f)+int(k)+id; i++ {
					delta.Record(f, 0)
				}
			}
			if err := ctr.ReceiveMeta(id, k, delta, UploadMeta{Epoch: k}); err != nil {
				t.Fatal(err)
			}
			blob, ok, err := ctr.MarshalUpload(id, k, (*countmin.Sketch).MarshalBinaryCompact)
			if err != nil || !ok {
				t.Fatalf("MarshalUpload(%d, %d) = ok=%v err=%v", id, k, ok, err)
			}
			src.cells[[2]int64{int64(id), k}] = blob
		}
		if k < 2 {
			continue
		}
		for f := uint64(0); f < flows; f++ {
			est, cov, err := ctr.QueryWindowLive(f, k)
			if err != nil {
				t.Fatal(err)
			}
			recorded = append(recorded, liveAnswer{f, k, est, cov})
		}
	}
	return ctr, src, recorded
}

// The same contract for the additive design: history stores the
// recovered per-epoch deltas, and counter-add replay reproduces the live
// join exactly.
func TestHistoryReplayMatchesLiveSize(t *testing.T) {
	ctr, src, recorded := sizeReplayFixture(t, 10)
	for _, want := range recorded {
		got, cov, err := ctr.QueryAtFrom(want.f, want.k, src)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want.est) {
			t.Fatalf("QueryAtFrom(f=%d, k=%d) = %v, live answer was %v", want.f, want.k, got, want.est)
		}
		if cov != want.cov {
			t.Fatalf("QueryAtFrom(f=%d, k=%d) coverage %+v, live was %+v", want.f, want.k, cov, want.cov)
		}
	}
}
