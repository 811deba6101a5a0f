package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The replay answers a window with one union estimate over its per-epoch
// partials instead of merging them. These tests hold that assembly to the
// naive algorithm: every retained cell in the window expanded to the
// maximum width, cloned and merged into one sketch, then estimated.

// spannedSource is a mapHistSource that reports the epochs it retains,
// as the epoch log does, so the replay clamps the epochs it visits.
type spannedSource[S Sketch[S]] struct{ *mapHistSource[S] }

func (s spannedSource[S]) Span() (first, last int64, ok bool) {
	for k := range s.cells {
		if e := k[1]; !ok || e < first {
			first = e
		}
		if e := k[1]; !ok || e > last {
			last = e
		}
		ok = true
	}
	return first, last, ok
}

// refWindowFrom is the clone-and-merge reference over src's cells in
// [first, last]: each cell expanded to wMax and merged into one sketch.
func refWindowFrom[S Sketch[S]](t *testing.T, src *mapHistSource[S], ids []int, wMax int, f uint64, first, last int64) (float64, Coverage) {
	t.Helper()
	if first < 1 {
		first = 1
	}
	var acc S
	cov := Coverage{EpochsExpected: len(ids) * int(last-first+1)}
	// Only epochs holding cells can contribute; walk those, not the range.
	var epochs []int64
	seen := map[int64]bool{}
	for k := range src.cells {
		if e := k[1]; e >= first && e <= last && !seen[e] {
			seen[e] = true
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		for _, id := range ids {
			cell, ok, err := src.Cell(id, e)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			cov.EpochsMerged++
			ex, err := cell.ExpandTo(wMax)
			if err != nil {
				t.Fatal(err)
			}
			if IsNil(acc) {
				acc = ex.Clone()
			} else if err := acc.Merge(ex); err != nil {
				t.Fatal(err)
			}
		}
	}
	if IsNil(acc) {
		return 0, cov
	}
	return acc.EstimateUnion(f, nil), cov
}

type windowBackend[S Sketch[S]] struct {
	fresh func(w int, seed uint64) S
	dec   func([]byte) (S, error)
	cfg   EngineConfig[S]
	w     int // narrowest width; points cycle w, 2w, 4w
}

func runReplayWindowReference[S Sketch[S]](t *testing.T, seed int64, b windowBackend[S]) {
	const (
		n, p   = 4, 5
		epochs = 24
		flows  = 8
	)
	rng := rand.New(rand.NewSource(seed))
	protos := map[int]S{}
	ids := make([]int, p)
	for x := 0; x < p; x++ {
		protos[x] = b.fresh(b.w<<(x%3), uint64(seed))
		ids[x] = x
	}
	wMax := 4 * b.w
	ctr, err := NewCenter(n, protos, b.cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &mapHistSource[S]{cells: map[[2]int64][]byte{}, dec: b.dec}
	// Cells start at epoch 3, epochs 9 and 17 hold none, and each other
	// cell is missing with probability 1/5.
	for e := int64(3); e <= epochs; e++ {
		if e == 9 || e == 17 {
			continue
		}
		for x := 0; x < p; x++ {
			if rng.Intn(5) == 0 {
				continue
			}
			sk := b.fresh(protos[x].Width(), uint64(seed))
			for i := 0; i < 60; i++ {
				sk.Record(uint64(rng.Intn(flows)), rng.Uint64()%512)
			}
			blob, err := sk.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			src.cells[[2]int64{int64(x), e}] = blob
		}
	}
	partialCost := int64(64 + b.fresh(wMax, uint64(seed)).MemoryBits()/8)

	check := func(t *testing.T, hs HistorySource[S], f uint64, first, last int64, at bool) {
		t.Helper()
		var got float64
		var cov Coverage
		var err error
		if at { // the window pushed during epoch last+1
			got, cov, err = ctr.QueryAtFrom(f, last+1, hs)
			first, last, _ = aggregateSpan(last+1, n)
		} else {
			got, cov, err = ctr.QueryRangeFrom(f, first, last, hs)
		}
		if err != nil {
			t.Fatalf("window [%d, %d] flow %d: %v", first, last, f, err)
		}
		want, wantCov := refWindowFrom(t, src, ids, wMax, f, first, last)
		if math.Float64bits(got) != math.Float64bits(want) || cov != wantCov {
			t.Fatalf("window [%d, %d] flow %d: got (%v, %+v), merge reference (%v, %+v)",
				first, last, f, got, cov, want, wantCov)
		}
	}

	sources := map[string]HistorySource[S]{"plain": src, "spanned": spannedSource[S]{src}}
	caches := map[string]int64{"off": 0, "small": 3 * partialCost, "large": 64 << 20}
	for _, sname := range []string{"plain", "spanned"} {
		for _, cname := range []string{"off", "small", "large"} {
			t.Run(sname+"/cache="+cname, func(t *testing.T) {
				hs := sources[sname]
				ctr.EnableReplayCache(caches[cname])
				var first, last int64
				f := uint64(0)
				for op := 0; op < 80; op++ {
					switch r := rng.Intn(10); {
					case op == 0 || r < 3: // a fresh window somewhere, possibly past either end
						first = int64(rng.Intn(epochs+6)) - 2
						last = first + int64(rng.Intn(12))
						f = uint64(rng.Intn(flows))
					case r < 7: // slide one epoch
						first++
						last++
					case r < 8: // repeat, possibly for another flow
						if rng.Intn(2) == 0 {
							f = uint64(rng.Intn(flows))
						}
					default: // the live-window form
						k := int64(rng.Intn(epochs+4)) + 1
						if _, l, ok := aggregateSpan(k, n); ok {
							check(t, hs, f, 0, l, true)
						}
						continue
					}
					if last < 1 {
						continue
					}
					check(t, hs, f, first, last, false)
				}
				if sname == "spanned" {
					// A range far wider than the retained history visits
					// only the retained epochs; one whose expected count
					// would overflow is refused.
					huge := int64(math.MaxInt64 / p)
					check(t, hs, 3, 1, huge, false)
					if _, _, err := ctr.QueryRangeFrom(3, 1, huge+1, hs); err == nil {
						t.Fatalf("range [1, %d] over %d points: no overflow error", huge+1, p)
					}
				}
			})
		}
	}

	// A partial of another shape in the window is refused with the
	// window-join error, whichever position it takes.
	foreign := map[string]S{
		"width": b.fresh(2*wMax, uint64(seed)),
		"seed":  b.fresh(wMax, uint64(seed)+1),
	}
	for _, name := range []string{"width", "seed"} {
		for _, at := range []int64{4, 5} {
			t.Run(fmt.Sprintf("foreign-%s/epoch=%d", name, at), func(t *testing.T) {
				ctr.EnableReplayCache(64 << 20)
				rc := ctr.replay
				rc.insert(at, src.Held(at, at, ids)[0], DecodedPartial(foreign[name], wMax))
				_, _, err := ctr.QueryRangeFrom(1, 4, 8, src)
				if err == nil || !strings.Contains(err.Error(), "history window join epoch") {
					t.Fatalf("foreign %s partial at epoch %d: err = %v, want the window-join error", name, at, err)
				}
			})
		}
	}
}

func TestReplayWindowMatchesMergeReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("rskt/seed=%d", seed), func(t *testing.T) {
			runReplayWindowReference(t, seed, windowBackend[*rskt.Sketch]{
				fresh: func(w int, seed uint64) *rskt.Sketch { return rskt.New(rskt.Params{W: w, M: 16, Seed: seed}) },
				dec: func(b []byte) (*rskt.Sketch, error) {
					var sk rskt.Sketch
					return &sk, sk.UnmarshalBinary(b)
				},
				cfg: EngineConfig[*rskt.Sketch]{Design: "spread", Mode: ModeDelta},
				w:   8,
			})
		})
		t.Run(fmt.Sprintf("vhll/seed=%d", seed), func(t *testing.T) {
			runReplayWindowReference(t, seed, windowBackend[*vhll.Sketch]{
				fresh: func(w int, seed uint64) *vhll.Sketch {
					sk, err := vhll.New(vhll.Params{PhysicalRegisters: w, VirtualRegisters: 16, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					return sk
				},
				dec: func(b []byte) (*vhll.Sketch, error) {
					var sk vhll.Sketch
					return &sk, sk.UnmarshalBinary(b)
				},
				cfg: EngineConfig[*vhll.Sketch]{Design: "spread", Mode: ModeDelta},
				w:   64,
			})
		})
		t.Run(fmt.Sprintf("countmin/seed=%d", seed), func(t *testing.T) {
			runReplayWindowReference(t, seed, windowBackend[*countmin.Sketch]{
				fresh: func(w int, seed uint64) *countmin.Sketch {
					return countmin.New(countmin.Params{D: 3, W: w, Seed: seed})
				},
				dec: func(b []byte) (*countmin.Sketch, error) {
					var sk countmin.Sketch
					return &sk, sk.UnmarshalBinary(b)
				},
				cfg: EngineConfig[*countmin.Sketch]{Design: "size", Mode: ModeDelta, Additive: true},
				w:   16,
			})
		})
	}
}
