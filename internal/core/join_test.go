package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// The window join is built once per round from per-epoch partials. These
// tests hold it to the naive per-destination algorithm it replaced: each
// point's temporal join over the span at its native width, expanded to the
// maximum width and spatially joined.

// refWindow is the naive eq. (5) join of the window pushed during k, read
// straight from the center's window store. Nil when the span holds no data.
func refWindow[S Sketch[S]](t *testing.T, c *Center[S], k int64) S {
	t.Helper()
	var acc S
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return acc
	}
	for _, id := range c.ids {
		var tj S
		for e := first; e <= last; e++ {
			d, ok := c.uploads[id][e]
			if !ok {
				continue
			}
			if IsNil(tj) {
				tj = d.Clone()
			} else if err := tj.Merge(d); err != nil {
				t.Fatal(err)
			}
		}
		if IsNil(tj) {
			continue
		}
		ex, err := tj.ExpandTo(c.wMax)
		if err != nil {
			t.Fatal(err)
		}
		if IsNil(acc) {
			acc = ex
		} else if err := acc.Merge(ex); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// refCoverage counts the window's weighted point-epochs cell by cell.
func refCoverage[S Sketch[S]](c *Center[S], k int64) Coverage {
	var cov Coverage
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return cov
	}
	for _, id := range c.ids {
		w := c.weightLocked(id)
		for e := first; e <= last; e++ {
			cov.EpochsExpected += w
			if _, ok := c.uploads[id][e]; ok {
				cov.EpochsMerged += w
			}
		}
	}
	return cov
}

func compactBytes[S Sketch[S]](t *testing.T, sk S) []byte {
	t.Helper()
	if IsNil(sk) {
		return nil
	}
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// joinRef is the reference center's push record: additive designs return
// the first aggregate computed for (point, k) on every later request.
type joinRef[S Sketch[S]] struct {
	c    *Center[S]
	sent map[[2]int64][]byte
}

func (r *joinRef[S]) aggregate(t *testing.T, point int, k int64) []byte {
	t.Helper()
	key := [2]int64{int64(point), k}
	if b, ok := r.sent[key]; ok {
		return b
	}
	var b []byte
	if w := refWindow(t, r.c, k); !IsNil(w) {
		out, err := w.CompressTo(r.c.protos[point].Width())
		if err != nil {
			t.Fatal(err)
		}
		b = compactBytes(t, out)
	}
	if r.c.additive {
		r.sent[key] = b
	}
	return b
}

// check compares the center's answers for the round pushed during k with
// the reference. Additive designs record what AggregateFor returns, so
// they are asked only when withAgg is set (the push phase).
func (r *joinRef[S]) check(t *testing.T, k int64, withAgg bool, step string) {
	t.Helper()
	want := refCoverage(r.c, k)
	if m, e := r.c.CoverageFor(k); m != want.EpochsMerged || e != want.EpochsExpected {
		t.Fatalf("%s: CoverageFor(%d) = %d/%d, want %+v", step, k, m, e, want)
	}
	w := refWindow(t, r.c, k)
	for f := uint64(0); f < 8; f++ {
		est, cov, err := r.c.QueryWindowLive(f, k)
		if err != nil {
			t.Fatal(err)
		}
		var wantEst float64
		if !IsNil(w) {
			wantEst = w.EstimateUnion(f, nil)
		}
		if est != wantEst || cov != want {
			t.Fatalf("%s: QueryWindowLive(%d, %d) = %v %+v, want %v %+v", step, f, k, est, cov, wantEst, want)
		}
	}
	if !withAgg && r.c.additive {
		return
	}
	for _, x := range r.c.ids {
		r.checkAggregate(t, x, k, step)
	}
}

// checkAggregate compares one AggregateFor with the reference, then
// scribbles over the returned sketch: no later caller may see that.
func (r *joinRef[S]) checkAggregate(t *testing.T, x int, k int64, step string) S {
	t.Helper()
	got, err := r.c.AggregateFor(x, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.aggregate(t, x, k); !bytes.Equal(compactBytes(t, got), want) {
		t.Fatalf("%s: AggregateFor(%d, %d) differs from the reference join", step, x, k)
	}
	return got
}

// runJoinSequence drives points and a center through a seeded random
// operation sequence — dropped uploads, late uploads, rebases, weight
// changes, dropped pushes, re-requests of the previous round — checking
// every answer against the reference after every operation.
func runJoinSequence[S Sketch[S]](t *testing.T, seed int64, c *Center[S], points []*Point[S], late, cum bool) {
	rng := rand.New(rand.NewSource(seed))
	ref := &joinRef[S]{c: c, sent: map[[2]int64][]byte{}}
	type pending struct {
		x    int
		k    int64
		up   S
		meta UploadMeta
	}
	var held []pending
	rebase := make([]bool, len(points))
	receive := func(x int, k int64, up S, meta UploadMeta) {
		err := c.ReceiveMeta(x, k, up, meta)
		switch {
		case err == nil:
			if meta.Rebase {
				rebase[x] = false
			}
		case errors.Is(err, ErrDuplicateUpload), errors.Is(err, ErrUploadGap):
		default:
			t.Fatal(err)
		}
	}
	const epochs = 16
	for k := int64(1); k <= epochs; k++ {
		for x, pt := range points {
			for i := 0; i < 40+rng.Intn(40); i++ {
				pt.Record(uint64(rng.Intn(12)), uint64(x)<<32|uint64(rng.Intn(500)))
			}
		}
		for x, pt := range points {
			up, meta := pt.EndEpochMeta(cum && rebase[x])
			switch r := rng.Intn(10); {
			case r == 0:
				// Lost upload: a cumulative chain now needs a rebase.
				rebase[x] = rebase[x] || cum
			case r == 1 && late:
				held = append(held, pending{x, k, up, meta})
			default:
				receive(x, k, up, meta)
			}
			ref.check(t, k+1, false, fmt.Sprintf("epoch %d upload %d", k, x))
		}
		kept := held[:0]
		for _, p := range held {
			if rng.Intn(2) == 0 {
				kept = append(kept, p)
				continue
			}
			receive(p.x, p.k, p.up, p.meta)
			ref.check(t, k+1, false, fmt.Sprintf("epoch %d late upload (%d, %d)", k, p.x, p.k))
		}
		held = kept
		if rng.Intn(4) == 0 {
			c.SetWeight(rng.Intn(len(points)), 1+rng.Intn(3))
			ref.check(t, k+1, false, fmt.Sprintf("epoch %d SetWeight", k))
		}
		for _, x := range rng.Perm(len(points)) {
			agg := ref.checkAggregate(t, x, k+1, fmt.Sprintf("epoch %d push", k))
			if !IsNil(agg) && rng.Intn(5) != 0 {
				m, _ := c.CoverageFor(k + 1)
				if err := points[x].ApplyAggregateCovAt(k+1, agg, m); err != nil {
					t.Fatal(err)
				}
			}
			if !IsNil(agg) {
				agg.Reset()
			}
		}
		ref.check(t, k+1, true, fmt.Sprintf("epoch %d after pushes", k))
		if k > 1 {
			// A backfill asks for the previous round again.
			ref.checkAggregate(t, rng.Intn(len(points)), k, fmt.Sprintf("epoch %d backfill", k))
		}
	}
}

func TestJoinMatchesReference(t *testing.T) {
	const n, p, w = 5, 6, 16
	widths := []int{w, 2 * w, 4 * w} // cycled across points
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("spread/seed=%d", seed), func(t *testing.T) {
			params := map[int]rskt.Params{}
			var points []*Point[*rskt.Sketch]
			for x := 0; x < p; x++ {
				params[x] = rskt.Params{W: widths[x%3], M: 16, Seed: uint64(seed)}
				pt, err := NewSpreadPoint(x, params[x])
				if err != nil {
					t.Fatal(err)
				}
				points = append(points, pt.Point)
			}
			c, err := NewSpreadCenter(n, params)
			if err != nil {
				t.Fatal(err)
			}
			runJoinSequence(t, seed, c.Center, points, true, false)
		})
		for _, mode := range []SizeMode{SizeModeCumulative, SizeModeDelta} {
			name := map[SizeMode]string{SizeModeCumulative: "size-cumulative", SizeModeDelta: "size-delta"}[mode]
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				params := map[int]countmin.Params{}
				var points []*Point[*countmin.Sketch]
				for x := 0; x < p; x++ {
					params[x] = countmin.Params{D: 3, W: widths[x%3], Seed: uint64(seed)}
					pt, err := NewSizePoint(x, params[x], mode)
					if err != nil {
						t.Fatal(err)
					}
					points = append(points, pt.Point)
				}
				c, err := NewSizeCenter(n, params, mode)
				if err != nil {
					t.Fatal(err)
				}
				runJoinSequence(t, seed, c.Center, points, false, mode == SizeModeCumulative)
			})
		}
	}
}

// opCounter counts the sketch operations a round's join or a point's
// epoch boundary performs.
type opCounter struct{ expand, merge, copy int }

// countingSketch is a CountMin that counts its ExpandTo, Merge and
// CopyFrom calls.
type countingSketch struct {
	sk *countmin.Sketch
	n  *opCounter
}

func (s *countingSketch) wrap(sk *countmin.Sketch) *countingSketch {
	return &countingSketch{sk: sk, n: s.n}
}
func (s *countingSketch) Record(f, e uint64) { s.sk.Record(f, e) }
func (s *countingSketch) EstimateUnion(f uint64, others []*countingSketch) float64 {
	os := make([]*countmin.Sketch, len(others))
	for i, o := range others {
		os[i] = o.sk
	}
	return s.sk.EstimateUnion(f, os)
}
func (s *countingSketch) Merge(o *countingSketch) error {
	s.n.merge++
	return s.sk.Merge(o.sk)
}
func (s *countingSketch) CopyFrom(o *countingSketch) error {
	s.n.copy++
	return s.sk.CopyFrom(o.sk)
}
func (s *countingSketch) Reset()                 { s.sk.Reset() }
func (s *countingSketch) Clone() *countingSketch { return s.wrap(s.sk.Clone()) }
func (s *countingSketch) ExpandTo(w int) (*countingSketch, error) {
	s.n.expand++
	sk, err := s.sk.ExpandTo(w)
	return s.wrap(sk), err
}
func (s *countingSketch) CompressTo(w int) (*countingSketch, error) {
	sk, err := s.sk.CompressTo(w)
	return s.wrap(sk), err
}
func (s *countingSketch) Width() int                            { return s.sk.Width() }
func (s *countingSketch) Compatible(o *countingSketch) bool     { return s.sk.Compatible(o.sk) }
func (s *countingSketch) MarshalBinaryCompact() ([]byte, error) { return s.sk.MarshalBinaryCompact() }
func (s *countingSketch) UnmarshalBinary(data []byte) error     { return s.sk.UnmarshalBinary(data) }
func (s *countingSketch) MemoryBits() int                       { return s.sk.MemoryBits() }
func (s *countingSketch) HeapBytes() int                        { return s.sk.HeapBytes() }
func (s *countingSketch) Project(f uint64) *countingSketch      { return s.wrap(s.sk.Project(f)) }

// TestJoinIsLinearPerRound guards the round's cost: a full push round —
// every point's upload, then every point's aggregate and coverage — must
// do O(p + n) expand-and-merges, not a join per destination point
// (p²·(n-1) at p = 64 is about 16k). The barrier — the round's first
// AggregateFor after its last upload — joins the newest epoch's width
// groups and merges that partial into the round's prefix: one Merge, plus
// one ExpandTo and the Merge that joins it per width group narrower than
// the maximum.
func TestJoinIsLinearPerRound(t *testing.T) {
	const n, p, a, b = 5, 64, 2, 2
	ops := &opCounter{}
	params := func(x int) countmin.Params { return countmin.Params{D: 2, W: 8 << (x % 3), Seed: 9} }
	protos := map[int]*countingSketch{}
	widths := map[int]bool{}
	for x := 0; x < p; x++ {
		protos[x] = &countingSketch{sk: countmin.New(params(x)), n: ops}
		widths[params(x).W] = true
	}
	narrow := len(widths) - 1
	c, err := NewCenter(n, protos, EngineConfig[*countingSketch]{Design: "size", Mode: ModeDelta, Additive: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 3*n; k++ {
		*ops = opCounter{}
		for x := 0; x < p; x++ {
			up := &countingSketch{sk: countmin.New(params(x)), n: ops}
			up.Record(uint64(x), 0)
			if err := c.ReceiveMeta(x, k, up, UploadMeta{Epoch: k}); err != nil {
				t.Fatal(err)
			}
		}
		atBarrier := *ops
		for x := 0; x < p; x++ {
			if _, err := c.AggregateFor(x, k+1); err != nil {
				t.Fatal(err)
			}
			if x == 0 {
				expand, merge := ops.expand-atBarrier.expand, ops.merge-atBarrier.merge
				if k > n && (expand > narrow || merge > 1+narrow) {
					t.Fatalf("round %d: the barrier did %d ExpandTo and %d Merge calls, want <= %d and <= %d", k, expand, merge, narrow, 1+narrow)
				}
			}
			c.CoverageFor(k + 1)
		}
		if got := ops.expand + ops.merge; k > n && got > a*p+b*n {
			t.Fatalf("round %d: %d ExpandTo+Merge calls (%d + %d), want <= %d", k, got, ops.expand, ops.merge, a*p+b*n)
		}
	}
}

// TestCheckpointMidRoundKeepsSentAggregate exports a cumulative size
// center after some points received round k's push and imports it into a
// fresh center: the pushed points get the recorded bytes back, the rest
// the same join the original center would have built, and the next round
// agrees byte for byte.
func TestCheckpointMidRoundKeepsSentAggregate(t *testing.T) {
	const n, p = 5, 6
	c := newSizeCluster(t, n, []int{16, 32, 64, 16, 32, 64}, 3, 11, SizeModeCumulative, false)
	packets := genEpochSizePackets(p, 9, 20, 11)
	for k := 1; k <= 7; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
	}
	k := int64(9)
	for x, pt := range c.points {
		for _, f := range packets[7][x] {
			pt.Record(f)
		}
		if err := c.center.Receive(x, 8, pt.EndEpoch()); err != nil {
			t.Fatal(err)
		}
	}
	pushed := map[int][]byte{}
	for x := 0; x < p/2; x++ {
		agg, err := c.center.AggregateFor(x, k)
		if err != nil {
			t.Fatal(err)
		}
		pushed[x] = compactBytes(t, agg)
		agg.Reset()
	}
	st, err := c.center.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	params := map[int]countmin.Params{}
	for x, pt := range c.points {
		params[x] = pt.Params()
	}
	restored, err := NewSizeCenter(n, params, SizeModeCumulative)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(st); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < p; x++ {
		got, err := restored.AggregateFor(x, k)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := pushed[x]
		if !ok {
			orig, err := c.center.AggregateFor(x, k)
			if err != nil {
				t.Fatal(err)
			}
			want = compactBytes(t, orig)
		}
		if !bytes.Equal(compactBytes(t, got), want) {
			t.Fatalf("point %d: restored AggregateFor(%d) differs (already pushed: %v)", x, k, x < p/2)
		}
	}
	// Round k+1 on both centers, from the same uploads.
	for x, pt := range c.points {
		for _, f := range packets[8][x] {
			pt.Record(f)
		}
		up := pt.EndEpoch()
		for _, ctr := range []*SizeCenter{c.center, restored} {
			if err := ctr.Receive(x, k, up.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for x := 0; x < p; x++ {
		a, err := c.center.AggregateFor(x, k+1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.AggregateFor(x, k+1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compactBytes(t, a), compactBytes(t, b)) {
			t.Fatalf("point %d: round %d differs after restore", x, k+1)
		}
	}
}
