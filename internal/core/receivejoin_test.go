package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The center joins each epoch as its cells arrive (epochJoin), freezes a
// partial once read, and merges the newest round's older partials into a
// prefix before the barrier. These tests hold every piece of that state
// to the joins the center would build from scratch over the cells it
// holds.

// peekPartial is j's partial as a read would return it, without freezing
// j or touching its groups.
func peekPartial[S Sketch[S]](t *testing.T, j *epochJoin[S], wMax int) epochPartial[S] {
	t.Helper()
	if j.frozen {
		return j.epochPartial
	}
	cp := &epochJoin[S]{epochPartial: epochPartial[S]{ids: slices.Clone(j.ids)}}
	for _, g := range j.groups {
		cp.groups = append(cp.groups, g.Clone())
	}
	p, err := cp.read(0, wMax)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// naivePartial expands every held cell of epoch e to wMax and merges them
// in id order.
func naivePartial[S Sketch[S]](t *testing.T, c *Center[S], e int64) S {
	t.Helper()
	var acc S
	for _, id := range c.ids {
		cell, ok := c.uploads[id][e]
		if !ok {
			continue
		}
		ex, err := cell.ExpandTo(c.wMax)
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

// partialWindow joins computeEpochPartial's partials of epochs from .. to
// over the held cells.
func partialWindow[S Sketch[S]](t *testing.T, c *Center[S], from, to int64) S {
	t.Helper()
	var acc S
	for e := from; e <= to; e++ {
		p, err := computeEpochPartial(e, c.ids, c.wMax, liveSource[S](c.uploads))
		if err != nil {
			t.Fatal(err)
		}
		if !p.have {
			continue
		}
		if IsNil(acc) {
			acc = p.sk.Clone()
		} else if err := acc.Merge(p.sk); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// checkJoinState holds every partial, the live prefix and every round
// memo to computeEpochPartial over the held cells and to the naive join.
func checkJoinState[S Sketch[S]](t *testing.T, c *Center[S], step string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for e, j := range c.part {
		want, err := computeEpochPartial(e, c.ids, c.wMax, liveSource[S](c.uploads))
		if err != nil {
			t.Fatal(err)
		}
		got := peekPartial(t, j, c.wMax)
		if got.have != want.have || !slices.Equal(got.ids, want.ids) || !bytes.Equal(compactBytes(t, got.sk), compactBytes(t, want.sk)) {
			t.Fatalf("%s: part[%d] (frozen %v) joined %v, the held cells give %v or other bytes", step, e, j.frozen, got.ids, want.ids)
		}
		if !bytes.Equal(compactBytes(t, want.sk), compactBytes(t, naivePartial(t, c, e))) {
			t.Fatalf("%s: computeEpochPartial(%d) differs from the naive join", step, e)
		}
	}
	if !IsNil(c.pre) {
		first, last, _ := aggregateSpan(c.preRound, c.windowN)
		if want := partialWindow(t, c, first, last-1); !bytes.Equal(compactBytes(t, c.pre), compactBytes(t, want)) {
			t.Fatalf("%s: round %d's prefix differs from the join of epochs %d..%d", step, c.preRound, first, last-1)
		}
	}
	for k, m := range c.rounds {
		want := refWindow(t, c, k)
		first, last, _ := aggregateSpan(k, c.windowN)
		if b := compactBytes(t, want); !bytes.Equal(compactBytes(t, m.joined), b) || !bytes.Equal(compactBytes(t, partialWindow(t, c, first, last)), b) {
			t.Fatalf("%s: round %d's window differs from the naive join or the held cells' partials", step, k)
		}
		if cov := refCoverage(c, k); m.cov != cov {
			t.Fatalf("%s: round %d's coverage %+v, want %+v", step, k, m.cov, cov)
		}
		for w, sk := range m.byWidth {
			ref, err := want.CompressTo(w)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(compactBytes(t, sk), compactBytes(t, ref)) {
				t.Fatalf("%s: round %d's width-%d aggregate differs from the reference", step, k, w)
			}
		}
	}
}

// joinEvents counts the transitions a receive-time join sequence went
// through, so a test can require that it reached each of them.
type joinEvents struct {
	frozenDrops int // an accepted cell dropped its epoch's frozen partial
	prefixDrops int // an accepted cell dropped the live prefix
	prefixTakes int // a round took its prefix
}

// receiveObserved delivers one upload, counting the transitions it makes.
func receiveObserved[S Sketch[S]](t *testing.T, c *Center[S], ev *joinEvents, x int, e int64, up S, meta UploadMeta) error {
	t.Helper()
	c.mu.Lock()
	j, ok := c.part[e]
	frozen := ok && j.frozen && j.have
	first, last, _ := aggregateSpan(c.preRound, c.windowN)
	inPrefix := !IsNil(c.pre) && first <= e && e < last
	c.mu.Unlock()
	err := c.ReceiveMeta(x, e, up, meta)
	if err == nil {
		c.mu.Lock()
		if frozen {
			ev.frozenDrops++
		}
		if inPrefix && IsNil(c.pre) {
			ev.prefixDrops++
		}
		c.mu.Unlock()
	}
	return err
}

// readObserved asks for round k's window through QueryWindowLive,
// counting a prefix take.
func readObserved[S Sketch[S]](t *testing.T, c *Center[S], ev *joinEvents, f uint64, k int64) {
	t.Helper()
	c.mu.Lock()
	_, memo := c.rounds[k]
	take := !memo && !IsNil(c.pre) && c.preRound == k
	c.mu.Unlock()
	if _, _, err := c.QueryWindowLive(f, k); err != nil {
		if _, _, ok := aggregateSpan(k, c.windowN); ok {
			t.Fatal(err)
		}
	}
	if take {
		ev.prefixTakes++
	}
}

// runReceiveJoin drives points and a center through a seeded random
// interleaving of uploads (lost, held back and delivered late when late
// is set), window and partial reads, mid-epoch checkpoints, weight
// changes and pushes, checking the join state after every step. Epoch 3
// is read halfway through its uploads, so at least two of its cells land
// after a read. With late set, two epoch-3 uploads and one epoch-5 upload
// are held back and land right after the next epoch's first cell: after
// their partial was read, and inside the live prefix.
func runReceiveJoin[S Sketch[S]](t *testing.T, seed int64, fresh func() *Center[S], points []*Point[S], late, cum bool) joinEvents {
	rng := rand.New(rand.NewSource(seed))
	c := fresh()
	var ev joinEvents
	type upload struct {
		x    int
		k    int64
		up   S
		meta UploadMeta
		due  int64 // a forced late cell: the epoch it lands in
	}
	var held []upload
	rebase := make([]bool, len(points))
	deliver := func(u upload, step string) {
		err := receiveObserved(t, c, &ev, u.x, u.k, u.up, u.meta)
		switch {
		case err == nil:
			if u.meta.Rebase {
				rebase[u.x] = false
			}
		case errors.Is(err, ErrDuplicateUpload), errors.Is(err, ErrUploadGap):
		default:
			t.Fatal(err)
		}
		checkJoinState(t, c, step)
	}
	read := func(k int64, step string) {
		switch r := rng.Intn(3); {
		case r == 0:
			e := max(1, k-int64(c.windowN)-1+rng.Int63n(int64(c.windowN)+2))
			if _, _, _, err := c.MarshalPartial(e, S.MarshalBinaryCompact); err != nil {
				t.Fatal(err)
			}
		case r == 1 || c.additive:
			readObserved(t, c, &ev, uint64(rng.Intn(12)), k+int64(rng.Intn(2)))
		default:
			if _, err := c.AggregateFor(rng.Intn(len(points)), k+1); err != nil {
				t.Fatal(err)
			}
		}
		checkJoinState(t, c, step)
	}
	const epochs = 14
	for k := int64(1); k <= epochs; k++ {
		for x, pt := range points {
			for i := 0; i < 40+rng.Intn(40); i++ {
				pt.Record(uint64(rng.Intn(12)), uint64(x)<<32|uint64(rng.Intn(500)))
			}
		}
		var now []upload
		for _, x := range rng.Perm(len(points)) {
			up, meta := points[x].EndEpochMeta(cum && rebase[x])
			switch r := rng.Intn(10); {
			case late && ((k == 3 && x <= 1) || (k == 5 && x == 0)):
				held = append(held, upload{x, k, up, meta, k + 1})
			case r == 0:
				// Lost upload: a cumulative chain now needs a rebase.
				rebase[x] = rebase[x] || cum
			case r == 1 && late:
				held = append(held, upload{x, k, up, meta, 0})
			default:
				now = append(now, upload{x, k, up, meta, 0})
			}
		}
		for i, u := range now {
			step := fmt.Sprintf("epoch %d upload %d", k, u.x)
			deliver(u, step)
			if i == 0 {
				held = slices.DeleteFunc(held, func(h upload) bool {
					if h.due == k {
						deliver(h, fmt.Sprintf("%s then forced late cell (%d, %d)", step, h.x, h.k))
					}
					return h.due == k
				})
			}
			if k == 3 && i == len(now)/2-1 {
				if _, _, _, err := c.MarshalPartial(k, S.MarshalBinaryCompact); err != nil {
					t.Fatal(err)
				}
			}
			for rng.Intn(3) == 0 {
				read(k, step+" read")
			}
			kept := held[:0]
			for _, h := range held {
				if rng.Intn(4) != 0 || h.due != 0 {
					kept = append(kept, h)
					continue
				}
				deliver(h, fmt.Sprintf("epoch %d late cell (%d, %d)", k, h.x, h.k))
			}
			held = kept
			if rng.Intn(12) == 0 {
				st, err := c.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				c = fresh()
				if err := c.ImportState(st); err != nil {
					t.Fatal(err)
				}
				checkJoinState(t, c, step+" restored")
			}
		}
		if rng.Intn(4) == 0 {
			c.SetWeight(rng.Intn(len(points)), 1+rng.Intn(3))
			checkJoinState(t, c, fmt.Sprintf("epoch %d SetWeight", k))
		}
		readObserved(t, c, &ev, 0, k+1)
		for _, x := range rng.Perm(len(points)) {
			agg, err := c.AggregateFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if !IsNil(agg) && rng.Intn(5) != 0 {
				m, _ := c.CoverageFor(k + 1)
				if err := points[x].ApplyAggregateCovAt(k+1, agg, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkJoinState(t, c, fmt.Sprintf("epoch %d after pushes", k))
	}
	return ev
}

func TestReceiveJoinMatchesReference(t *testing.T) {
	const n, p, w = 5, 6, 16
	widths := []int{w, 2 * w, 4 * w} // cycled across points
	check := func(t *testing.T, ev joinEvents, late bool) {
		t.Helper()
		if ev.frozenDrops < 2 || ev.prefixTakes == 0 || (late && ev.prefixDrops == 0) {
			t.Fatalf("the sequence missed a transition: %+v", ev)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
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
			fresh := func() *Center[*rskt.Sketch] {
				c, err := NewSpreadCenter(n, params)
				if err != nil {
					t.Fatal(err)
				}
				return c.Center
			}
			check(t, runReceiveJoin(t, seed, fresh, points, true, false), true)
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
				fresh := func() *Center[*countmin.Sketch] {
					c, err := NewSizeCenter(n, params, mode)
					if err != nil {
						t.Fatal(err)
					}
					return c.Center
				}
				check(t, runReceiveJoin(t, seed, fresh, points, false, mode == SizeModeCumulative), false)
			})
		}
	}
}

// TestMarshalPartialRacesLateUpload encodes epoch e's frozen partial
// outside the center lock while late uploads for e arrive: a late cell
// must drop the frozen partial, never write into it (run under -race).
func TestMarshalPartialRacesLateUpload(t *testing.T) {
	const n, p, e = 5, 16, 3
	params := map[int]rskt.Params{}
	for x := 0; x < p; x++ {
		params[x] = rskt.Params{W: 8 << (x % 3), M: 8, Seed: 5}
	}
	sc, err := NewSpreadCenter(n, params)
	if err != nil {
		t.Fatal(err)
	}
	c := sc.Center
	upload := func(x int) *rskt.Sketch {
		up := c.protos[x].Clone()
		for i := 0; i < 64; i++ {
			up.Record(uint64(i%5), uint64(x*1000+i))
		}
		return up
	}
	for x := 0; x < p/2; x++ {
		if err := c.Receive(x, e, upload(x)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4*p; i++ {
			if _, _, _, err := c.MarshalPartial(e, (*rskt.Sketch).MarshalBinaryCompact); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for x := p / 2; x < p; x++ {
		if err := c.Receive(x, e, upload(x)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	b, ids, ok, err := c.MarshalPartial(e, (*rskt.Sketch).MarshalBinaryCompact)
	if err != nil || !ok || len(ids) != p {
		t.Fatalf("MarshalPartial: ok=%v ids=%v err=%v", ok, ids, err)
	}
	c.mu.Lock()
	want, err := computeEpochPartial(e, c.ids, c.wMax, liveSource[*rskt.Sketch](c.uploads))
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, compactBytes(t, want.sk)) {
		t.Fatal("the partial after the late uploads differs from the join of every held cell")
	}
}

// TestMarshalUploadRacesReceive encodes held cells of the cumulative size
// design outside the center lock while the rounds that hold, read and
// trim them run: receives that recover each epoch from the previous cell,
// pushes, and the trim of every cell that leaves the window. Every cell
// the center hands out must encode to the canonical bytes of its epoch's
// packets (run under -race: a write into a cell being encoded is a race).
func TestMarshalUploadRacesReceive(t *testing.T) {
	const (
		n, p, w, d = 3, 4, 64, 4
		epochs     = 40
	)
	packets := genEpochSizePackets(p, epochs, 30, 13)
	c := newSizeCluster(t, n, []int{w, w, w, w}, d, 5, SizeModeCumulative, false)
	want := make([][][]byte, epochs+1)
	for k := 1; k <= epochs; k++ {
		for x := 0; x < p; x++ {
			cell := countmin.New(c.points[x].Params())
			for _, f := range packets[k-1][x] {
				cell.Record(f, 0)
			}
			want[k] = append(want[k], compactBytes(t, cell))
		}
	}
	// cur is the last epoch run; passes counts the encoder's sweeps, so
	// every round waits for one sweep that may overlap the next.
	var cur, passes, encoded atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			k := cur.Load()
			for e := max(1, k-n-2); e <= k+1 && e <= epochs; e++ {
				for x := 0; x < p; x++ {
					b, ok, err := c.center.MarshalUpload(x, e, (*countmin.Sketch).MarshalBinaryCompact)
					if err != nil {
						t.Error(err)
						return
					}
					if ok && !bytes.Equal(b, want[e][x]) {
						t.Errorf("cell (%d, %d): the encoding is not the epoch's packets", x, e)
						return
					}
					if ok {
						encoded.Add(1)
					}
				}
			}
			passes.Add(1)
		}
	}()
	for k := 1; k <= epochs; k++ {
		c.runEpoch(t, int64(k), packets[k-1])
		cur.Store(int64(k))
		for p0 := passes.Load(); passes.Load() < p0+2 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if encoded.Load() == 0 {
		t.Fatal("no held cell was encoded while the rounds ran")
	}
}

// TestSameWidthCompressIsShared: a max-merge design's fold onto its own
// width is the sketch itself, so the center hands wMax points the window
// without a copy. CountMin's fold takes the max with zero, so a negative
// counter, which the center's subtraction recovery can leave in a delta,
// does not survive it: the additive design keeps its copy.
func TestSameWidthCompressIsShared(t *testing.T) {
	rs := rskt.New(rskt.Params{W: 16, M: 16, Seed: 3})
	vh, err := vhll.New(vhll.Params{PhysicalRegisters: 1024, VirtualRegisters: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cm := countmin.New(countmin.Params{D: 3, W: 16, Seed: 3})
	for i := uint64(0); i < 500; i++ {
		rs.Record(i%7, i)
		vh.Record(i%7, i)
		cm.Record(i%7, i)
	}
	neg := countmin.New(countmin.Params{D: 3, W: 16, Seed: 3})
	neg.Record(1, 1)
	if err := neg.SubSketch(cm); err != nil {
		t.Fatal(err)
	}
	same := func(a, b interface{ MarshalBinaryCompact() ([]byte, error) }) bool {
		x, err := a.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Equal(x, y)
	}
	for _, tc := range []struct {
		name  string
		equal func() bool
		want  bool
	}{
		{"rskt", func() bool { out, err := rs.CompressTo(rs.Width()); return err == nil && out.Equal(rs) }, true},
		{"vhll", func() bool { out, err := vh.CompressTo(vh.Width()); return err == nil && same(out, vh) }, true},
		{"countmin", func() bool { out, err := cm.CompressTo(cm.Width()); return err == nil && out.Equal(cm) }, true},
		{"countmin-negative", func() bool { out, err := neg.CompressTo(neg.Width()); return err == nil && out.Equal(neg) }, false},
	} {
		if got := tc.equal(); got != tc.want {
			t.Errorf("%s: CompressTo(own width) equal to the receiver = %v, want %v", tc.name, got, tc.want)
		}
	}
}
