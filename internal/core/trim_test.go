package core

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// heldKeys snapshots which (point, epoch) cells a per-point map family
// holds.
func heldKeys[S any](m map[int]map[int64]S) map[[2]int64]bool {
	keys := make(map[[2]int64]bool)
	for id, per := range m {
		for e := range per {
			keys[[2]int64{int64(id), e}] = true
		}
	}
	return keys
}

// runTrimMatchesFullWalk drives a center through seeded receives from
// points whose epoch clocks drift apart (so receives trim at different
// floors), late and duplicate uploads, pushes for old and new epochs and
// checkpoint round trips, and after every step requires the held cells to
// be exactly what a full walk of every map on every receive leaves. The
// model takes each cell the center stores as it appears, and a receive
// that trimmed drops every modelled cell below its floor, as the full walk
// did; a cell the center failed to drop is held but not modelled.
func runTrimMatchesFullWalk[S Sketch[S]](t *testing.T, seed int64, c *Center[S], fresh func() *Center[S], upload func(x int) S) {
	const steps = 3000
	p := len(c.ids)
	rng := rand.New(rand.NewSource(seed))
	model := map[string]map[[2]int64]bool{"uploads": {}, "sentAgg": {}, "sentEnh": {}}
	var underHeld int
	for step := 0; step < steps; step++ {
		x := rng.Intn(p)
		var trimmed bool
		var floor int64
		switch r := rng.Intn(10); {
		case r < 6:
			last := c.LastEpoch(x)
			e := last + 1 + int64(rng.Intn(1+x)) // faster clocks for higher ids
			if rng.Intn(4) == 0 && last > 0 {
				e = 1 + rng.Int63n(last) // late, or a duplicate
			}
			c.mu.Lock()
			if e < c.minHeld {
				underHeld++
			}
			c.mu.Unlock()
			err := c.ReceiveMeta(x, e, upload(x), UploadMeta{Epoch: e, AggApplied: rng.Intn(2) == 0, EnhApplied: rng.Intn(2) == 0, Rebase: rng.Intn(3) == 0})
			switch {
			case err == nil, errors.Is(err, ErrUploadGap):
				trimmed, floor = true, c.LastEpoch(x)-int64(c.windowN)-1
			case errors.Is(err, ErrDuplicateUpload):
			default:
				t.Fatal(err)
			}
		case r < 9:
			// A push for a recent round, or for one right after a held
			// cell, which may sit under the lowest held epoch.
			k := max(1, c.MaxEpoch()+1-rng.Int63n(3*int64(c.windowN)))
			c.mu.Lock()
			var held []int64
			for _, id := range c.ids {
				for e := range c.uploads[id] {
					held = append(held, e)
				}
			}
			slices.Sort(held)
			if len(held) > 0 && rng.Intn(2) == 0 {
				k = held[rng.Intn(len(held))] + 1 + rng.Int63n(2)
			}
			if k < c.minHeld {
				underHeld++
			}
			c.mu.Unlock()
			push := c.AggregateFor
			if r == 8 {
				push = c.EnhancementFor
			}
			if _, err := push(x, k); err != nil {
				t.Fatal(err)
			}
		default:
			st, err := c.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			c = fresh()
			if err := c.ImportState(st); err != nil {
				t.Fatal(err)
			}
		}
		c.mu.Lock()
		now := map[string]map[[2]int64]bool{"uploads": heldKeys(c.uploads), "sentAgg": heldKeys(c.sentAgg), "sentEnh": heldKeys(c.sentEnh)}
		c.mu.Unlock()
		for name, held := range now {
			for k := range held {
				model[name][k] = true
			}
			if trimmed {
				maps.DeleteFunc(model[name], func(k [2]int64, _ bool) bool { return k[1] < floor })
			}
			if !maps.Equal(held, model[name]) {
				t.Fatalf("step %d: %s holds %d cells, a full walk leaves %d", step, name, len(held), len(model[name]))
			}
		}
	}
	if underHeld < 10 {
		t.Fatalf("only %d uploads or pushes landed under the lowest held epoch", underHeld)
	}
}

// TestTrimMatchesFullWalk holds the trim-per-floor-step to the full walk
// it replaced, for a max-merge and an additive center.
func TestTrimMatchesFullWalk(t *testing.T) {
	const n, p = 4, 5
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("spread/seed=%d", seed), func(t *testing.T) {
			params := map[int]rskt.Params{}
			for x := 0; x < p; x++ {
				params[x] = rskt.Params{W: 2 << (x % 2), M: 4, Seed: 1}
			}
			fresh := func() *Center[*rskt.Sketch] {
				c, err := NewSpreadCenter(n, params)
				if err != nil {
					t.Fatal(err)
				}
				return c.Center
			}
			c := fresh()
			runTrimMatchesFullWalk(t, seed, c, fresh, func(x int) *rskt.Sketch {
				up := c.protos[x].Clone()
				up.Record(uint64(x), uint64(seed))
				return up
			})
		})
		t.Run(fmt.Sprintf("size-cumulative/seed=%d", seed), func(t *testing.T) {
			params := map[int]countmin.Params{}
			for x := 0; x < p; x++ {
				params[x] = countmin.Params{D: 2, W: 4 << (x % 2), Seed: 1}
			}
			fresh := func() *Center[*countmin.Sketch] {
				c, err := NewSizeCenter(n, params, SizeModeCumulative)
				if err != nil {
					t.Fatal(err)
				}
				return c.Center
			}
			c := fresh()
			runTrimMatchesFullWalk(t, seed, c, fresh, func(x int) *countmin.Sketch {
				up := c.protos[x].Clone()
				up.Record(uint64(x), uint64(seed))
				return up
			})
		})
	}
}

// BenchmarkCenterReceive is one accepted upload at a steady-state center
// (16-byte rSkt2 sketches, n = 10): the lock time a receive costs before
// any sizable sketch work.
func BenchmarkCenterReceive(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			params := map[int]rskt.Params{}
			for x := 0; x < p; x++ {
				params[x] = rskt.Params{W: 2, M: 4, Seed: 1}
			}
			sc, err := NewSpreadCenter(10, params)
			if err != nil {
				b.Fatal(err)
			}
			ups := make([]*rskt.Sketch, p)
			for x := range ups {
				ups[x] = rskt.New(params[x])
				ups[x].Record(uint64(x), uint64(x))
			}
			receive := func(i int) {
				if err := sc.Receive(i%p, 1+int64(i/p), ups[i%p]); err != nil {
					b.Fatal(err)
				}
			}
			warm := 20 * p
			for i := 0; i < warm; i++ {
				receive(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				receive(warm + i)
			}
		})
	}
}
