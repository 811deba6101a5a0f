package transport

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
)

// The model-based history referee: seeded random sequences of appends,
// faults, topology changes, cache resets, restarts and compactions run
// against a real center, its durable.Log and a replay cache small enough
// that LRU eviction fires. Every historical answer the RPC gives, asked
// twice (cold, then warm), must equal bit for bit, coverage included, a
// naive replay that shares nothing with the system under test: every
// retained point cell of the span decoded fresh from the log, expanded to
// the maximum width and merged into one sketch.

// modelNaive answers a historical query from the log's point cells alone,
// with coverage counted under the center's current weights.
func (e *engineCenter[S]) modelNaive(log *durable.Log, ids []int, windowN int, f uint64, at bool, a, b int64) (float64, core.Coverage, error) {
	first, last := a, b
	if at {
		first, last = a-int64(windowN)+2, a-1
	}
	first = max(first, 1)
	if first > last {
		return 0, core.Coverage{}, fmt.Errorf("empty epoch span [%d, %d]", first, last)
	}
	weight := 0
	for _, id := range ids {
		weight += e.ctr.Weight(id)
	}
	cov := core.Coverage{EpochsExpected: weight * int(last-first+1)}
	lo, hi, ok := log.Span()
	if !ok {
		return 0, cov, nil
	}
	wMax := e.ctr.NewPartialSketch().Width()
	var acc S
	have := false
	for ep := max(first, lo); ep <= min(last, hi); ep++ {
		for _, id := range ids {
			blob, ok, err := log.Get(id, ep)
			if err != nil {
				return 0, cov, err
			}
			if !ok {
				continue
			}
			cell, err := decodeFor(e.hist.fresh, id, blob)
			if err != nil {
				return 0, cov, err
			}
			if cell.Width() != wMax {
				if cell, err = cell.ExpandTo(wMax); err != nil {
					return 0, cov, err
				}
			}
			if !have {
				acc, have = cell, true
			} else if err := acc.Merge(cell); err != nil {
				return 0, cov, err
			}
			cov.EpochsMerged += e.ctr.Weight(id)
		}
	}
	if !have {
		return 0, cov, nil
	}
	return acc.EstimateUnion(f, nil), cov, nil
}

// modelStored encodes the center's stored cell for (point, epoch), the
// bytes a late upload of it carries.
func (e *engineCenter[S]) modelStored(point int, epoch int64) ([]byte, bool, error) {
	return e.ctr.MarshalUpload(point, epoch, S.MarshalBinaryCompact)
}

// modelPartialCharge is the replay cache's charge for one partial.
func (e *engineCenter[S]) modelPartialCharge() int64 {
	return 64 + int64(e.ctr.NewPartialSketch().MemoryBits()/8)
}

type modelEngine interface {
	modelNaive(log *durable.Log, ids []int, windowN int, f uint64, at bool, a, b int64) (float64, core.Coverage, error)
	modelStored(point int, epoch int64) ([]byte, bool, error)
	modelPartialCharge() int64
}

// historyModel drives one sequence.
type historyModel struct {
	t   *testing.T
	rng *rand.Rand
	r   *partialRig
	srv *CenterServer // the running center: r.srv, then the restarted one
	k   int64         // last closed epoch
	// missing lists the point cells whose append failed and that no late
	// append has filled yet.
	missing [][2]int64
	// Late and duplicate appends run, to prove the sequence had both.
	lates, dups int
}

func (m *historyModel) eng() modelEngine { return m.srv.eng.(modelEngine) }

// attachCache gives the running center a replay cache of three partials.
func (m *historyModel) attachCache() {
	m.srv.eng.EnableReplayCache(3 * m.eng().modelPartialCharge())
}

// compact runs the retention pass an append may have started in the
// background, synchronously, so the log a check reads is fixed.
func (m *historyModel) compact() {
	if err := m.srv.CompactStore(); err != nil {
		m.t.Fatal(err)
	}
}

// round closes the next epoch, failing each point-cell append and the
// partial append with probability 1/6.
func (m *historyModel) round() {
	m.k++
	failed := 0
	for _, id := range m.r.ids {
		if m.rng.Intn(6) == 0 {
			m.r.fail(id, m.k)
			m.missing = append(m.missing, [2]int64{int64(id), m.k})
			failed++
		}
	}
	if m.rng.Intn(6) == 0 {
		m.r.fail(partialCell, m.k)
	}
	m.r.round(m.k, failed)
	m.compact()
}

// late appends a failed cell the center still holds, after asking for its
// epoch twice so a cached partial joins it without the cell.
func (m *historyModel) late() bool {
	for i, c := range m.missing {
		point, epoch := int(c[0]), c[1]
		blob, ok, err := m.eng().modelStored(point, epoch)
		if err != nil {
			m.t.Fatal(err)
		}
		if !ok {
			continue
		}
		m.check(false, epoch, epoch)
		m.check(true, epoch+1, 0)
		m.r.mu.Lock()
		delete(m.r.faults, [2]int64{int64(point), epoch})
		m.r.mu.Unlock()
		m.srv.appendStore(Upload{Point: point, Epoch: epoch, Sketch: blob})
		m.r.cells++
		m.r.settle()
		m.compact()
		m.missing = append(m.missing[:i], m.missing[i+1:]...)
		m.lates++
		m.check(false, epoch, epoch)
		m.check(true, epoch+1, 0)
		return true
	}
	return false
}

// dup re-appends a logged cell the center still holds, with identical
// bytes.
func (m *historyModel) dup() bool {
	lo := max(1, m.k-2)
	for e := m.k; e >= lo; e-- {
		id := m.r.ids[m.rng.Intn(len(m.r.ids))]
		blob, ok, err := m.srv.store.Get(id, e)
		if err != nil {
			m.t.Fatal(err)
		}
		if !ok {
			continue
		}
		if _, held, _ := m.eng().modelStored(id, e); !held {
			continue
		}
		m.srv.appendStore(Upload{Point: id, Epoch: e, Sketch: blob})
		m.r.cells++
		m.r.settle()
		m.compact()
		m.dups++
		return true
	}
	return false
}

// query checks a few random QueryAt and QueryRange forms, some of them
// empty.
func (m *historyModel) query() {
	for i := 0; i < 3; i++ {
		if m.rng.Intn(2) == 0 {
			m.check(true, 1+m.rng.Int63n(m.k+2), 0)
			continue
		}
		a := m.rng.Int63n(m.k+3) - 1
		m.check(false, a, a+m.rng.Int63n(7)-1)
	}
}

// check asks one query over the RPC twice, cold then warm, and holds
// both answers to the naive replay of the log as it stands.
func (m *historyModel) check(at bool, a, b int64) {
	m.t.Helper()
	f := uint64(m.rng.Intn(8))
	want, wantCov, wantErr := m.eng().modelNaive(m.srv.store, m.r.ids, m.r.cfg.WindowN, f, at, a, b)
	qc, err := DialQuery(m.srv.HistoryQueryAddr().String())
	if err != nil {
		m.t.Fatal(err)
	}
	defer qc.Close()
	for _, pass := range []string{"cold", "warm"} {
		var got float64
		var cov core.Coverage
		if at {
			got, cov, err = qc.QueryAt(f, a)
		} else {
			got, cov, err = qc.QueryRange(f, a, b)
		}
		what := fmt.Sprintf("epoch %d, %s: flow %d at=%v [%d, %d]", m.k, pass, f, at, a, b)
		switch {
		case wantErr != nil || err != nil:
			if (wantErr == nil) != (err == nil) {
				m.t.Fatalf("%s: rpc err %v, naive err %v", what, err, wantErr)
			}
		case math.Float64bits(got) != math.Float64bits(want):
			m.t.Fatalf("%s = %v, naive replay %v", what, got, want)
		case cov != wantCov:
			m.t.Fatalf("%s coverage %+v, naive replay %+v", what, cov, wantCov)
		}
	}
}

func (m *historyModel) setWeight() {
	m.srv.eng.SetWeight(m.r.ids[m.rng.Intn(len(m.r.ids))], 1+m.rng.Intn(3))
}

func runHistoryModel(t *testing.T, tc partialCase, seed int64) {
	const rounds = 30
	m := &historyModel{t: t, rng: rand.New(rand.NewSource(seed))}
	m.r = newPartialRig(t, tc, uint64(seed), func(cfg *CenterConfig) { cfg.RetainEpochs = 6 })
	m.srv = m.r.srv
	m.attachCache()

	// Live: every append kind, interleaved with queries.
	for m.k < rounds {
		switch op := m.rng.Intn(13); {
		case op < 4 || m.k < 2:
			m.round()
		case op < 6:
			if !m.late() {
				m.round()
			}
		case op < 8:
			m.dup()
		case op < 9:
			m.setWeight()
		case op < 10:
			m.srv.ResetReplayCache()
		default:
			m.query()
		}
	}
	m.query()
	st := m.srv.Stats()
	if st.ReplayCacheHits == 0 || st.ReplayCacheEvictions == 0 || st.StoreFirstEpoch <= 1 {
		t.Fatalf("sequence left the cache or retention idle: hits %d, evictions %d, store from epoch %d",
			st.ReplayCacheHits, st.ReplayCacheEvictions, st.StoreFirstEpoch)
	}
	if m.lates == 0 || m.dups == 0 {
		t.Fatalf("sequence ran %d late and %d duplicate appends, want both", m.lates, m.dups)
	}
	m.r.close()

	// Restarted from the store alone with tighter retention: no more
	// appends, so compaction is an operation of its own.
	cfg := m.r.cfg
	cfg.RetainEpochs = 3
	srv, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m.srv = srv
	m.attachCache()
	for i := 0; i < 16; i++ {
		switch op := m.rng.Intn(8); {
		case op < 1:
			m.setWeight()
		case op < 2:
			m.srv.ResetReplayCache()
		case op < 3:
			m.compact()
		default:
			m.query()
		}
	}
	m.compact()
	m.query()
}

// TestHistoryModelMatchesNaiveReplay runs the model over both designs,
// both spread backends, delta and cumulative size uploads and uniform and
// w/2w/4w widths, two seeds each.
func TestHistoryModelMatchesNaiveReplay(t *testing.T) {
	noLeak(t)
	cases := []partialCase{
		{kind: KindSpread, sketch: SketchRskt, mixed: true},
		{kind: KindSpread, sketch: SketchVhll},
		{kind: KindSize, delta: true, mixed: true},
		{kind: KindSize},
	}
	for i, tc := range cases {
		for s := int64(1); s <= 2; s++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc, s), func(t *testing.T) {
				runHistoryModel(t, tc, int64(10*i)+s)
			})
		}
	}
}
