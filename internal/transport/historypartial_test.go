package transport

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
)

// cellsOnly is the partial path's referee: the same epoch log read cell
// by cell, with the partial cells hidden (its EpochPartial never
// answers).
type cellsOnly[S core.Sketch[S]] struct{ ls logSource[S] }

func (c cellsOnly[S]) Span() (first, last int64, ok bool) { return c.ls.Span() }
func (c cellsOnly[S]) Held(first, last int64, points []int) [][]int {
	return c.ls.Held(first, last, points)
}
func (c cellsOnly[S]) EpochPartial(int64, []int) (core.StoredPartial[S], bool, error) {
	return nil, false, nil
}
func (c cellsOnly[S]) EpochCells(epoch int64, points []int, visit func(int, S) error) error {
	return c.ls.EpochCells(epoch, points, visit)
}

func cellsOnlyQuery[S core.Sketch[S]](e *engineCenter[S], log *durable.Log, f uint64, at bool, a, b int64) (float64, core.Coverage, error) {
	src := cellsOnly[S]{e.source(log)}
	if at {
		return e.ctr.QueryAtFrom(f, a, src)
	}
	return e.ctr.QueryRangeFrom(f, a, b, src)
}

// referenceQuery answers a historical query on srv's center from the
// point cells alone.
func referenceQuery(t *testing.T, srv *CenterServer, f uint64, at bool, a, b int64) (float64, core.Coverage, error) {
	t.Helper()
	switch e := srv.eng.(type) {
	case *engineCenter[*rskt.Sketch]:
		return cellsOnlyQuery(e, srv.store, f, at, a, b)
	case *engineCenter[*countmin.Sketch]:
		return cellsOnlyQuery(e, srv.store, f, at, a, b)
	}
	t.Fatalf("unknown center engine %T", srv.eng)
	return 0, core.Coverage{}, nil
}

// partialCase is one center shape the partial referee runs.
type partialCase struct {
	kind  Kind
	delta bool // size design: per-epoch delta uploads
	mixed bool // point widths w/2w/4w instead of uniform
	relay bool // leaves 0 and 1 reach the center through one relay
}

func (c partialCase) String() string {
	s := string(c.kind) + "-rskt"
	if c.kind == KindSize {
		s = string(c.kind) + map[bool]string{false: "-cumulative", true: "-delta"}[c.delta]
	}
	s += map[bool]string{false: "-uniform", true: "-mixed"}[c.mixed]
	return s + map[bool]string{false: "-flat", true: "-relay"}[c.relay]
}

// partialRig is a running cluster for one partialCase: three leaf points,
// fed to the center directly or (leaves 0 and 1) through relay 10.
type partialRig struct {
	t      *testing.T
	cfg    CenterConfig
	srv    *CenterServer
	relay  *RelayServer
	points []*PointClient
	ids    []int // the center's children
	// The appends the log should have taken, and the failed ones.
	cells, partials, errs int64
	// faults lists the (point, epoch) appends the center fails.
	mu     sync.Mutex
	faults map[[2]int64]bool
}

const (
	partialRelayID = 10
	partialW       = 32
)

func newPartialRig(t *testing.T, tc partialCase, seed uint64, tweaks ...func(*CenterConfig)) *partialRig {
	leafW := []int{partialW, partialW, partialW}
	if tc.mixed {
		leafW = []int{partialW, 2 * partialW, 4 * partialW}
	}
	r := &partialRig{t: t, faults: map[[2]int64]bool{}}
	widths := map[int]int{0: leafW[0], 1: leafW[1], 2: leafW[2]}
	var weights map[int]int
	if tc.relay {
		widths = map[int]int{partialRelayID: max(leafW[0], leafW[1]), 2: leafW[2]}
		weights = map[int]int{partialRelayID: 2}
	}
	for id := range widths {
		r.ids = append(r.ids, id)
	}
	r.cfg = CenterConfig{
		Addr: "127.0.0.1:0", Kind: tc.kind, WindowN: 4,
		Widths: widths, Weights: weights, M: 16, D: 4, Seed: seed,
		DeltaUploads: tc.delta, StoreDir: t.TempDir(), StoreSegmentBytes: 1 << 10,
		ReplayCacheBytes: -1, // every query is a cold replay through the log
		HistoryAddr:      "127.0.0.1:0", Logf: quietLogf,
	}
	for _, tw := range tweaks {
		tw(&r.cfg)
	}
	srv, err := ServeCenter(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.srv = srv
	t.Cleanup(r.close)
	fail := func(point int, epoch int64) bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.faults[[2]int64{int64(point), epoch}]
	}
	srv.failAppend.Store(&fail)
	upstream := map[int]string{0: srv.Addr().String(), 1: srv.Addr().String(), 2: srv.Addr().String()}
	if tc.relay {
		relay, err := ServeRelay(RelayConfig{
			Addr: "127.0.0.1:0", UpstreamAddr: srv.Addr().String(), Relay: partialRelayID,
			Kind: tc.kind, WindowN: 4,
			Widths: map[int]int{0: leafW[0], 1: leafW[1]},
			M:      16, D: 4, Seed: seed, Logf: quietLogf,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.relay = relay
		upstream[0], upstream[1] = relay.Addr().String(), relay.Addr().String()
	}
	for x := 0; x < 3; x++ {
		pc, err := DialPoint(PointConfig{
			Addr: upstream[x], Point: x, Kind: tc.kind,
			W: leafW[x], M: 16, D: 4, Seed: seed, DeltaUploads: tc.delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.points = append(r.points, pc)
	}
	return r
}

// fail makes the center's append of (point, epoch) fail.
func (r *partialRig) fail(point int, epoch int64) {
	r.mu.Lock()
	r.faults[[2]int64{int64(point), epoch}] = true
	r.mu.Unlock()
}

// endEpoch ends epoch k on the given leaves, after recording traffic.
func (r *partialRig) endEpoch(k int, leaves ...int) {
	for _, x := range leaves {
		record(k, x, r.points[x].Record)
		if err := r.points[x].EndEpoch(); err != nil {
			r.t.Fatal(err)
		}
	}
}

// settle waits until the log took every append the rig expects.
func (r *partialRig) settle() {
	r.t.Helper()
	waitFor(r.t, fmt.Sprintf("%d cells, %d partials, %d append errors", r.cells, r.partials, r.errs), func() bool {
		st := r.srv.Stats()
		return st.StoreAppends >= r.cells && st.StorePartialAppends >= r.partials && st.StoreAppendErrors >= r.errs
	})
	if st := r.srv.Stats(); st.StoreAppends != r.cells || st.StorePartialAppends != r.partials || st.StoreAppendErrors != r.errs {
		r.t.Fatalf("store counters cells=%d partials=%d errors=%d, want %d/%d/%d",
			st.StoreAppends, st.StorePartialAppends, st.StoreAppendErrors, r.cells, r.partials, r.errs)
	}
}

// closed accounts for epoch k's round close, which appends the epoch's
// partial after the push.
func (r *partialRig) closed(k int64) {
	if r.faults[[2]int64{partialCell, k}] {
		r.errs++
	} else {
		r.partials++
	}
}

// round runs epoch k on every leaf and waits for its round and appends.
// failed is how many of the center's point-cell appends fail.
func (r *partialRig) round(k int64, failed int) {
	r.endEpoch(int(k), 0, 1, 2)
	if !r.srv.WaitRounds(k) {
		r.t.Fatalf("center closed before round %d", k)
	}
	r.closed(k)
	r.cells += int64(len(r.ids) - failed)
	r.errs += int64(failed)
	r.settle()
}

// close stops the cluster; it runs again, as a no-op, at cleanup.
func (r *partialRig) close() {
	for _, pc := range r.points {
		pc.Close()
	}
	r.points = nil
	if r.relay != nil {
		r.relay.Close()
		r.relay = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

// checkAgainstCells asserts every QueryAt and a seeded set of QueryRange
// answers over the RPC equal, bit for bit and with equal coverage, the
// same query replayed from the point cells alone.
func checkAgainstCells(t *testing.T, srv *CenterServer, rng *rand.Rand, epochs int64, step string) {
	t.Helper()
	qc, err := DialQuery(srv.HistoryQueryAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	type query struct {
		at   bool
		a, b int64
	}
	var qs []query
	for k := int64(3); k <= epochs+1; k++ {
		qs = append(qs, query{true, k, 0})
	}
	for i := 0; i < 6; i++ {
		a := 1 + rng.Int63n(epochs)
		qs = append(qs, query{false, a, a + rng.Int63n(epochs-a+2)})
	}
	for f := uint64(0); f < 4; f++ {
		for _, q := range qs {
			var got float64
			var cov core.Coverage
			var err error
			if q.at {
				got, cov, err = qc.QueryAt(f, q.a)
			} else {
				got, cov, err = qc.QueryRange(f, q.a, q.b)
			}
			want, wantCov, wantErr := referenceQuery(t, srv, f, q.at, q.a, q.b)
			what := fmt.Sprintf("%s: flow %d %+v", step, f, q)
			switch {
			case wantErr != nil || err != nil:
				if (wantErr == nil) != (err == nil) {
					t.Fatalf("%s: rpc err %v, cells err %v", what, err, wantErr)
				}
			case math.Float64bits(got) != math.Float64bits(want):
				t.Fatalf("%s = %v, from the cells %v", what, got, want)
			case cov != wantCov:
				t.Fatalf("%s coverage %+v, from the cells %+v", what, cov, wantCov)
			}
		}
	}
}

// replayReadDelta runs one single-epoch range query and reports which
// read path answered that epoch.
func replayReadDelta(t *testing.T, srv *CenterServer, e int64) (partial, cells int64) {
	t.Helper()
	before := srv.Stats()
	if _, _, err := srv.HistoryRange(0, e, e); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	return after.ReplayEpochsFromPartial - before.ReplayEpochsFromPartial,
		after.ReplayEpochsFromCells - before.ReplayEpochsFromCells
}

// TestPersistedPartialMatchesCells is the referee for the partial cell:
// over real TCP, every historical answer a center gives with partial
// cells in its log must equal — Float64bits and coverage — the replay of
// the same query from the point cells alone. Seeded sequences over both
// designs, cumulative and delta size uploads,
// uniform and w/2w/4w widths, and flat and relay-fed centers each run
// normal rounds, a cell landing after its epoch's partial was logged, a
// failed point-cell append, SetWeight, a restart from the store and a
// retention compaction.
func TestPersistedPartialMatchesCells(t *testing.T) {
	noLeak(t)
	// Cumulative uploads cannot be pre-merged by a relay, so only the
	// flat centers run them.
	for _, c := range []struct {
		tc   partialCase
		seed int64
	}{
		{partialCase{kind: KindSpread}, 1},
		{partialCase{kind: KindSize, delta: true}, 3},
		{partialCase{kind: KindSize}, 4},
		{partialCase{kind: KindSpread, mixed: true}, 5},
		{partialCase{kind: KindSize, delta: true, mixed: true}, 7},
		{partialCase{kind: KindSize, mixed: true}, 8},
		{partialCase{kind: KindSpread, relay: true}, 9},
		{partialCase{kind: KindSize, delta: true, relay: true}, 11},
		{partialCase{kind: KindSpread, mixed: true, relay: true}, 12},
		{partialCase{kind: KindSize, delta: true, mixed: true, relay: true}, 14},
	} {
		t.Run(c.tc.String(), func(t *testing.T) {
			runPartialSequence(t, c.tc, c.seed)
		})
	}
}

// TestPreviousLayoutPartialFallsBackToCells: a store logged before the
// partial cell carried its encoding's length and block index holds
// partial cells of ids and the bare encoding. Such a cell is not read as
// a partial: every epoch replays from its point cells, and every history
// answer equals, bit for bit and in coverage, the cells-only replay.
func TestPreviousLayoutPartialFallsBackToCells(t *testing.T) {
	noLeak(t)
	for _, c := range []struct {
		tc   partialCase
		seed int64
	}{
		{partialCase{kind: KindSpread}, 0},
		{partialCase{kind: KindSize, delta: true}, 2},
		{partialCase{kind: KindSize, mixed: true}, 3},
	} {
		t.Run(c.tc.String(), func(t *testing.T) {
			const epochs = 6
			r := newPartialRig(t, c.tc, uint64(c.seed)*5+3)
			for k := int64(1); k <= epochs; k++ {
				r.round(k, 0)
			}
			for k := int64(1); k <= epochs; k++ {
				blob, ok, err := r.srv.store.Get(partialCell, k)
				if err != nil || !ok {
					t.Fatalf("epoch %d partial cell: ok=%v err=%v", k, ok, err)
				}
				ids, body, err := parsePartialCell(blob)
				if err != nil {
					t.Fatal(err)
				}
				enc, _, err := splitPartialBody(body)
				if err != nil {
					t.Fatal(err)
				}
				old := appender{}
				old.u32(len(ids))
				for _, id := range ids {
					old.u32(id)
				}
				old.raw(enc)
				if err := r.srv.store.Append(partialCell, k, old.b); err != nil {
					t.Fatal(err)
				}
			}
			for k := int64(1); k <= epochs; k++ {
				if p, cells := replayReadDelta(t, r.srv, k); p != 0 || cells != 1 {
					t.Fatalf("epoch %d replayed from partial=%d cells=%d, want the cells", k, p, cells)
				}
			}
			checkAgainstCells(t, r.srv, rand.New(rand.NewSource(c.seed)), epochs, "previous layout")
		})
	}
}

// TestUnparsablePartialCellFallsBackToCells: a CRC-valid partial cell
// whose id list does not parse — no ids, or ids out of order, before a
// readable body — is not read as a partial, as a body of another layout
// is not: its epoch replays from its point cells and counts as a cells
// read, and every answer equals the cells-only replay, bit for bit and at
// full coverage.
func TestUnparsablePartialCellFallsBackToCells(t *testing.T) {
	noLeak(t)
	for _, c := range []struct {
		tc   partialCase
		seed int64
	}{
		{partialCase{kind: KindSpread}, 0},
		{partialCase{kind: KindSize, delta: true}, 2},
	} {
		t.Run(c.tc.String(), func(t *testing.T) {
			const epochs = 6
			r := newPartialRig(t, c.tc, uint64(c.seed)*3+2)
			for k := int64(1); k <= epochs; k++ {
				r.round(k, 0)
			}
			for k := int64(1); k <= epochs; k++ {
				blob, ok, err := r.srv.store.Get(partialCell, k)
				if err != nil || !ok {
					t.Fatalf("epoch %d partial cell: ok=%v err=%v", k, ok, err)
				}
				ids, body, err := parsePartialCell(blob)
				if err != nil {
					t.Fatal(err)
				}
				bad := appender{}
				if k%2 == 0 { // the ids, last first
					bad.u32(len(ids))
					for j := len(ids) - 1; j >= 0; j-- {
						bad.u32(ids[j])
					}
				} else { // no ids
					bad.u32(0)
				}
				bad.raw(body)
				if err := r.srv.store.Append(partialCell, k, bad.b); err != nil {
					t.Fatal(err)
				}
			}
			for k := int64(1); k <= epochs; k++ {
				if p, cells := replayReadDelta(t, r.srv, k); p != 0 || cells != 1 {
					t.Fatalf("epoch %d replayed from partial=%d cells=%d, want the cells", k, p, cells)
				}
			}
			for k := int64(3); k <= epochs+1; k++ {
				for f := uint64(0); f < 4; f++ {
					got, cov, err := r.srv.HistoryAt(f, k)
					if err != nil {
						t.Fatalf("HistoryAt(%d, %d): %v", f, k, err)
					}
					want, wantCov, err := referenceQuery(t, r.srv, f, true, k, 0)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) || cov != wantCov {
						t.Fatalf("HistoryAt(%d, %d) = (%v, %+v), from the cells (%v, %+v)", f, k, got, cov, want, wantCov)
					}
					if cov.EpochsMerged != cov.EpochsExpected {
						t.Fatalf("HistoryAt(%d, %d) coverage %+v, want full", f, k, cov)
					}
				}
			}
		})
	}
}

func runPartialSequence(t *testing.T, tc partialCase, seed int64) {
	const epochs = 12
	rng := rand.New(rand.NewSource(seed))
	lateEpoch := 3 + rng.Int63n(3) // 3..5
	failEpoch := 7 + rng.Int63n(3) // 7..9
	weightAt := 6 + rng.Int63n(4)  // 6..9
	normal := 10 + rng.Int63n(2)   // 10..11, no fault
	r := newPartialRig(t, tc, uint64(seed)*7+1)
	failID := r.ids[rng.Intn(len(r.ids))]

	for k := int64(1); k <= epochs; k++ {
		switch k {
		case lateEpoch:
			// The epoch's partial is logged while leaf 2's cell is still
			// outstanding, as if its round had closed without it, and the
			// real round close then fails to append its own: the log keeps
			// a partial that misses a cell it holds.
			r.endEpoch(int(k), 0, 1)
			r.cells += int64(len(r.ids) - 1)
			r.settle()
			r.srv.appendPartial(k)
			r.partials++
			r.settle()
			r.fail(partialCell, k)
			r.endEpoch(int(k), 2)
			if !r.srv.WaitRounds(k) {
				t.Fatalf("center closed before round %d", k)
			}
			r.closed(k)
			r.cells++
			r.settle()
		case failEpoch:
			// One child's point-cell append fails; the epoch's partial
			// still joins that child's cell.
			r.fail(failID, k)
			r.round(k, 1)
		default:
			r.round(k, 0)
		}
		if k == weightAt {
			r.srv.eng.SetWeight(r.ids[rng.Intn(len(r.ids))], 1+rng.Intn(3))
		}
		if k == epochs/2 {
			checkAgainstCells(t, r.srv, rng, k, fmt.Sprintf("after epoch %d", k))
		}
	}
	checkAgainstCells(t, r.srv, rng, epochs, "live")
	for _, c := range []struct {
		e           int64
		fromPartial bool
	}{{lateEpoch, false}, {failEpoch, false}, {normal, true}} {
		p, cells := replayReadDelta(t, r.srv, c.e)
		if c.fromPartial && (p != 1 || cells != 0) || !c.fromPartial && (p != 0 || cells != 1) {
			t.Fatalf("epoch %d replayed from partial=%d cells=%d, want the partial: %v", c.e, p, cells, c.fromPartial)
		}
	}
	r.close()

	// Restart from the store alone, with retention on: the new center
	// rebuilds the log index, its weights come from the configuration
	// again, and a compaction evicts the oldest segments — partials and
	// cells of one epoch need not share a segment.
	cfg := r.cfg
	cfg.RetainEpochs = 5
	srv, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	checkAgainstCells(t, srv, rng, epochs, "restarted")
	srv.eng.SetWeight(r.ids[rng.Intn(len(r.ids))], 2+rng.Intn(2))
	checkAgainstCells(t, srv, rng, epochs, "restarted, weight set")
	if err := srv.CompactStore(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.StoreFirstEpoch <= 1 {
		t.Fatalf("compaction evicted nothing: store spans %d..%d", st.StoreFirstEpoch, st.StoreLastEpoch)
	}
	checkAgainstCells(t, srv, rng, epochs, "compacted")
	if st := srv.Stats(); st.ReplayEpochsFromPartial == 0 || st.ReplayEpochsFromCells == 0 {
		t.Fatalf("restarted center replayed %d epochs from partials, %d from cells; want both paths",
			st.ReplayEpochsFromPartial, st.ReplayEpochsFromCells)
	}
}

// TestRestoreReappendsCheckpointedCells: the round's checkpoint is
// written before the completing upload's cell is appended, so a crash
// between the two leaves a checkpoint holding a cell the log lacks, and
// the point's retransmit then drops as a duplicate. Failing every point
// cell of the last epoch models the crash at its widest. A center
// restarted on the same checkpoint and store must replay, bit for bit
// and with equal coverage, the live answers the crashed center gave.
func TestRestoreReappendsCheckpointedCells(t *testing.T) {
	noLeak(t)
	const last, flows = 6, 4
	for i, tc := range []partialCase{
		{kind: KindSpread},
		{kind: KindSize, delta: true},
		{kind: KindSize},
	} {
		t.Run(tc.String(), func(t *testing.T) {
			ckpt := t.TempDir()
			r := newPartialRig(t, tc, uint64(i+1), func(c *CenterConfig) { c.CheckpointDir = ckpt })
			for k := int64(1); k < last; k++ {
				r.round(k, 0)
			}
			for _, id := range r.ids {
				r.fail(id, last)
			}
			r.round(last, len(r.ids))
			live := recordLive(t, r.srv, flows, last+1)
			if _, cov, err := r.srv.HistoryAt(0, last+1); err != nil || cov == live[0].cov {
				t.Fatalf("HistoryAt(0, %d) before the restart: coverage %+v, err %v; want less than the live %+v",
					last+1, cov, err, live[0].cov)
			}
			r.close()

			srv, err := ServeCenter(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if st := srv.Stats(); st.RestoredGeneration == 0 || st.StoreAppends == 0 {
				t.Fatalf("restart restored generation %d and appended %d cells", st.RestoredGeneration, st.StoreAppends)
			}
			checkReplay(t, srv.HistoryQueryAddr().String(), live)
		})
	}
}

// The partial cell's layout is bounded and canonical: a parse accepts
// exactly what appendPartialCell builds — ids, then the sketch encoding
// and its block index — and ServeCenter refuses a topology that would put
// a child's cells under the reserved id.
func TestPartialCellFormat(t *testing.T) {
	sk, idx := []byte{0xC4, 1, 2, 3}, []byte{9, 8}
	ids, body, err := parsePartialCell(appendPartialCell([]int{0, 3, 7}, sk, idx))
	if err != nil || fmt.Sprint(ids) != "[0 3 7]" {
		t.Fatalf("round trip: ids %v err %v", ids, err)
	}
	gotSk, gotIdx, err := splitPartialBody(body)
	if err != nil || string(gotSk) != string(sk) || string(gotIdx) != string(idx) {
		t.Fatalf("round trip: sketch %x index %x err %v", gotSk, gotIdx, err)
	}
	for name, blob := range map[string][]byte{
		"empty":        nil,
		"no ids":       appendPartialCell(nil, sk, idx),
		"count > data": {9, 0, 0, 0, 1, 0, 0, 0},
		"unsorted":     appendPartialCell([]int{3, 0}, sk, idx),
		"duplicate":    appendPartialCell([]int{3, 3}, sk, idx),
	} {
		if _, _, err := parsePartialCell(blob); err == nil {
			t.Errorf("%s: parsed %x", name, blob)
		}
	}
	for name, body := range map[string][]byte{
		"no length":       {1, 0},
		"length > data":   {9, 0, 0, 0, 1, 2, 3},
		"truncated count": {4, 0, 0, 0, 0xC4, 1, 2},
	} {
		if _, _, err := splitPartialBody(body); err == nil {
			t.Errorf("%s: split %x", name, body)
		}
	}
	_, err = ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: 4,
		Widths: map[int]int{0: 32, partialCell: 32}, M: 16, Seed: 1, Logf: quietLogf,
	})
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("ServeCenter with the reserved id: %v", err)
	}
}
