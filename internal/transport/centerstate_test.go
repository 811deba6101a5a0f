package transport

import (
	"bytes"
	"reflect"
	"testing"
)

// TestCenterStateImportRejectsForeignShape imports into a center the
// window store exported by a center of another shape: another width,
// another seed and, for CountMin, another depth. Each import must be
// rejected, and the center left exactly as it was: the same exported
// state bytes and the same pushes as an untouched twin. Width and depth
// already fail the decode into the point's declared shape; another seed
// decodes cleanly and only the shape check catches it.
func TestCenterStateImportRejectsForeignShape(t *testing.T) {
	widths := map[int]int{0: 32, 1: 64}
	for _, tc := range []struct {
		name string
		cfg  CenterConfig
	}{
		{"rskt", CenterConfig{Kind: KindSpread, Sketch: SketchRskt, M: 8, Seed: 3}},
		{"vhll", CenterConfig{Kind: KindSpread, Sketch: SketchVhll, M: 8, Seed: 3}},
		{"countmin_cumulative", CenterConfig{Kind: KindSize, D: 2, Seed: 3}},
		{"countmin_delta", CenterConfig{Kind: KindSize, D: 2, Seed: 3, DeltaUploads: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.cfg
			base.WindowN, base.Widths = 5, widths
			foreign := map[string]CenterConfig{}
			wider := base
			wider.Widths = map[int]int{0: 64, 1: 128}
			foreign["width"] = wider
			seeded := base
			seeded.Seed++
			foreign["seed"] = seeded
			if base.Kind == KindSize {
				deeper := base
				deeper.D++
				foreign["depth"] = deeper
			}

			victim, twin := populatedCenter(t, base), populatedCenter(t, base)
			for name, cfg := range foreign {
				st, err := populatedCenter(t, cfg).ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if err := victim.ImportState(st); err == nil {
					t.Fatalf("imported the state of a center with another %s", name)
				}
				if !bytes.Equal(centerStateBytes(t, base.Kind, victim), centerStateBytes(t, base.Kind, twin)) {
					t.Fatalf("a rejected import of another %s changed the exported state", name)
				}
			}
			for id := range widths {
				got, err := victim.buildPush(id, 4, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twin.buildPush(id, 4, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d: push after rejected imports differs from the untouched twin's", id)
				}
			}
		})
	}
}

// populatedCenter builds a center under cfg and runs three epochs of
// uploads from points of the matching shape through it, pushing each
// round so an additive center also records sent pushes.
func populatedCenter(t *testing.T, cfg CenterConfig) centerEngine {
	t.Helper()
	eng, err := newCenterEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := map[int]pointEngine{}
	for id, w := range cfg.Widths {
		pts[id], err = newPointEngine(PointConfig{Point: id, Kind: cfg.Kind, Sketch: cfg.Sketch,
			W: w, M: cfg.M, D: cfg.D, Seed: cfg.Seed, DeltaUploads: cfg.DeltaUploads})
		if err != nil {
			t.Fatal(err)
		}
	}
	for e := int64(1); e <= 3; e++ {
		for id := range cfg.Widths {
			for f := uint64(0); f < 20; f++ {
				pts[id].record(f, f*uint64(e)+uint64(id))
			}
			epoch, data, meta, err := pts[id].endEpoch(false)
			if err != nil {
				t.Fatal(err)
			}
			up := Upload{Point: id, Epoch: epoch, Sketch: data,
				AggApplied: meta.AggApplied, EnhApplied: meta.EnhApplied, Rebase: meta.Rebase}
			if _, err := eng.receive(up); err != nil {
				t.Fatal(err)
			}
		}
		for id := range cfg.Widths {
			if _, err := eng.buildPush(id, e+1, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng
}

// centerStateBytes encodes a center's exported window store as its
// checkpoint section does.
func centerStateBytes(t *testing.T, kind Kind, eng centerEngine) []byte {
	t.Helper()
	st, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return (&centerSection{topo: topology{kind: kind}, state: st}).encode()
}
