package core

import (
	"fmt"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// TestHeldBytesByRole pins each role of Center.HeldBytes to its formula
// in the steady state of a window of n = 5, with widths w/2w/4w cycled
// across p points: mid-round (one upload of epoch K+1 in, its prefix
// built) and after round K+2's barrier. Every point is pushed each round,
// and the additive design also sends every enhancement.
func TestHeldBytesByRole(t *testing.T) {
	const n, K = 5, 8
	widths := []int{2, 4, 8}
	for _, p := range []int{4, 16, 256} {
		t.Run(fmt.Sprintf("spread/p=%d", p), func(t *testing.T) {
			params := map[int]rskt.Params{}
			for x := 0; x < p; x++ {
				params[x] = rskt.Params{W: widths[x%3], M: 4, Seed: 1}
			}
			c, err := NewSpreadCenter(n, params)
			if err != nil {
				t.Fatal(err)
			}
			runHeldBytes(t, c.Center, K, false)
		})
		t.Run(fmt.Sprintf("size/p=%d", p), func(t *testing.T) {
			params := map[int]countmin.Params{}
			for x := 0; x < p; x++ {
				params[x] = countmin.Params{D: 2, W: 2 * widths[x%3], Seed: 1}
			}
			c, err := NewSizeCenter(n, params, SizeModeDelta)
			if err != nil {
				t.Fatal(err)
			}
			runHeldBytes(t, c.Center, K, true)
		})
	}
}

func runHeldBytes[S Sketch[S]](t *testing.T, c *Center[S], K int64, additive bool) {
	hb := map[int]int{} // HeapBytes by width
	sumX := 0           // one sketch per point at its own width
	for _, id := range c.ids {
		sk := c.protos[id]
		hb[sk.Width()] = sk.HeapBytes()
		sumX += sk.HeapBytes()
	}
	wide := hb[c.wMax]
	// A memo holds the window and one sketch per width; a max-merge design
	// hands wMax points the window itself.
	memo := 0
	for w, b := range hb {
		if w != c.wMax || additive {
			memo += b
		}
	}
	upload := func(x int, k int64) {
		up := c.protos[x].Clone()
		up.Record(uint64(x), uint64(k))
		if err := c.Receive(x, k, up); err != nil {
			t.Fatal(err)
		}
	}
	push := func(k int64) {
		for _, x := range c.ids {
			if _, err := c.AggregateFor(x, k); err != nil {
				t.Fatal(err)
			}
			if additive {
				if _, err := c.EnhancementFor(x, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for k := int64(1); k <= K; k++ {
		for _, x := range c.ids {
			upload(x, k)
		}
		push(k + 1)
	}
	// Mid-round: epochs K-5 .. K held and read, point 0's cell of K+1 open,
	// round K+2's prefix (epochs K-1 and K) built, and memos K-2 .. K+1.
	// The additive design records rounds K-5 .. K+1: the memos hold the
	// last four, and points of one width share each older aggregate. Each
	// enhancement is the point's own.
	x0 := c.ids[0]
	upload(x0, K+1)
	want := CenterHeld{
		Uploads: 6*sumX + hb[c.protos[x0].Width()],
		Open:    hb[c.protos[x0].Width()],
		Frozen:  6 * wide,
		Prefix:  wide,
		Rounds:  4 * (wide + memo),
	}
	if additive {
		want.Sent = 3*memo + 7*sumX
	}
	if got := c.HeldBytes(); got != want {
		t.Fatalf("mid-round: HeldBytes = %+v, want %+v", got, want)
	}
	// After the barrier: the prefix went into round K+2's memo, and the
	// memo cap evicted round K-2's.
	for _, x := range c.ids[1:] {
		upload(x, K+1)
	}
	push(K + 2)
	want = CenterHeld{
		Uploads: 7 * sumX,
		Frozen:  7 * wide,
		Rounds:  4 * (wide + memo),
	}
	if additive {
		want.Sent = 4*memo + 8*sumX
	}
	if got := c.HeldBytes(); got != want {
		t.Fatalf("after the barrier: HeldBytes = %+v, want %+v", got, want)
	}
}
