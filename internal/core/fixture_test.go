package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// The estimate fixtures pin the exact answers (bit-for-bit: spread
// estimates as hex floats, size estimates as integers) and the coverage
// accounting of a deterministic protocol run for every design variant,
// sequential and sharded. They were generated before the generic epoch
// engine existed, so they prove the refactored engine reproduces the
// pre-refactor behavior exactly. Regenerate with -update-fixtures only for
// a deliberate behavior change.

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite the estimate fixtures in testdata/fixtures")

// fixtureQuery is one pinned query result.
type fixtureQuery struct {
	Flow     uint64 `json:"flow"`
	Point    int    `json:"point"`
	Estimate string `json:"estimate"` // hex float (spread) or decimal int (size)
	CovM     int    `json:"cov_merged"`
	CovE     int    `json:"cov_expected"`
}

// fixtureEpoch is the pinned state after one epoch's boundary exchange.
type fixtureEpoch struct {
	Epoch   int64          `json:"epoch"`
	Queries []fixtureQuery `json:"queries"`
}

type fixtureFile struct {
	Design string         `json:"design"`
	Shards int            `json:"shards"`
	Epochs []fixtureEpoch `json:"epochs"`
}

const (
	fixtureWindowN = 5
	fixtureEpochs  = 8
	fixtureFlows   = 12
	fixturePerFlow = 3
	fixtureSeed    = 7
	// skipPushEpoch is the epoch whose aggregate push point 0 never
	// receives, so the fixtures also pin the degraded-coverage arithmetic.
	skipPushEpoch = int64(4)
)

func fixtureWidths() []int { return []int{32, 64, 128} }

// checkFixture compares (or with -update-fixtures, rewrites) one fixture.
func checkFixture(t *testing.T, name string, got fixtureFile) {
	t.Helper()
	path := filepath.Join("testdata", "fixtures", name+".json")
	if *updateFixtures {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-fixtures): %v", err)
	}
	var want fixtureFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Epochs) != len(want.Epochs) {
		t.Fatalf("%s: %d epochs, fixture has %d", name, len(got.Epochs), len(want.Epochs))
	}
	for i := range want.Epochs {
		ge, we := got.Epochs[i], want.Epochs[i]
		if ge.Epoch != we.Epoch || len(ge.Queries) != len(we.Queries) {
			t.Fatalf("%s: epoch entry %d is %+v, fixture has %+v", name, i, ge.Epoch, we.Epoch)
		}
		for j := range we.Queries {
			if ge.Queries[j] != we.Queries[j] {
				t.Errorf("%s: epoch %d query %d:\n  got  %+v\n  want %+v",
					name, we.Epoch, j, ge.Queries[j], we.Queries[j])
			}
		}
	}
}

// runSpreadFixture drives a 3-point spread cluster (rSkt2 backend) through
// the full boundary choreography — upload, coverage-carrying aggregate
// push, enhancement — with one push deliberately lost, and snapshots every
// flow's estimate after every exchange.
func runSpreadFixture(t *testing.T, shards int) fixtureFile {
	t.Helper()
	widths := fixtureWidths()
	params := make(map[int]rskt.Params, len(widths))
	pts := make([]*SpreadPoint[*rskt.Sketch], len(widths))
	for x, w := range widths {
		p := rskt.Params{W: w, M: 16, Seed: fixtureSeed}
		params[x] = p
		sp, err := newSpreadPointOf(x, func() *rskt.Sketch { return rskt.New(p) }, shards)
		if err != nil {
			t.Fatal(err)
		}
		sp.SetTopology(len(widths), fixtureWindowN)
		pts[x] = sp
	}
	center, err := NewSpreadCenter(fixtureWindowN, params)
	if err != nil {
		t.Fatal(err)
	}
	packets := genEpochPackets(len(widths), fixtureEpochs, fixtureFlows, fixturePerFlow, fixtureSeed)
	out := fixtureFile{Design: "spread", Shards: shards}
	for k := int64(1); k <= fixtureEpochs; k++ {
		for x, ps := range packets[k-1] {
			if shards > 1 {
				batch := make([]SpreadPacket, len(ps))
				for i, p := range ps {
					batch[i] = SpreadPacket{Flow: p.f, Elem: p.e}
				}
				pts[x].RecordBatch(batch)
			} else {
				for _, p := range ps {
					pts[x].Record(p.f, p.e)
				}
			}
		}
		for x, pt := range pts {
			if err := center.Receive(x, k, pt.EndEpoch()); err != nil {
				t.Fatal(err)
			}
		}
		for x, pt := range pts {
			if x == 0 && k == skipPushEpoch {
				continue // the lost push: point 0 rolls degraded coverage
			}
			agg, err := center.AggregateFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			merged, _ := center.CoverageFor(k + 1)
			if err := pt.ApplyAggregateCovAt(k+1, agg, merged); err != nil {
				t.Fatal(err)
			}
			enh, err := center.EnhancementFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.ApplyEnhancementAt(k+1, enh); err != nil {
				t.Fatal(err)
			}
		}
		fe := fixtureEpoch{Epoch: k}
		for x, pt := range pts {
			for f := 0; f < fixtureFlows; f += 3 {
				v, cov := pt.QueryWithCoverage(uint64(f))
				fe.Queries = append(fe.Queries, fixtureQuery{
					Flow: uint64(f), Point: x,
					Estimate: strconv.FormatFloat(v, 'x', -1, 64),
					CovM:     cov.EpochsMerged, CovE: cov.EpochsExpected,
				})
			}
		}
		out.Epochs = append(out.Epochs, fe)
	}
	return out
}

// runSizeFixture is the size-design counterpart, for either upload mode.
func runSizeFixture(t *testing.T, mode SizeMode, shards int) fixtureFile {
	t.Helper()
	widths := []int{64, 128, 256}
	params := make(map[int]countmin.Params, len(widths))
	pts := make([]*SizePoint, len(widths))
	for x, w := range widths {
		p := countmin.Params{D: 3, W: w, Seed: fixtureSeed + 2}
		params[x] = p
		sp, err := newSizePoint(x, p, mode, shards)
		if err != nil {
			t.Fatal(err)
		}
		sp.SetTopology(len(widths), fixtureWindowN)
		pts[x] = sp
	}
	center, err := NewSizeCenter(fixtureWindowN, params, mode)
	if err != nil {
		t.Fatal(err)
	}
	packets := genEpochPackets(len(widths), fixtureEpochs, fixtureFlows, fixturePerFlow, fixtureSeed+2)
	design := "size_cumulative"
	if mode == SizeModeDelta {
		design = "size_delta"
	}
	out := fixtureFile{Design: design, Shards: shards}
	for k := int64(1); k <= fixtureEpochs; k++ {
		for x, ps := range packets[k-1] {
			if shards > 1 {
				batch := make([]uint64, len(ps))
				for i, p := range ps {
					batch[i] = p.f
				}
				pts[x].RecordBatch(batch)
			} else {
				for _, p := range ps {
					pts[x].Record(p.f)
				}
			}
		}
		for x, pt := range pts {
			upload, meta := pt.EndEpochMeta(false)
			if err := center.ReceiveMeta(x, k, upload, meta); err != nil {
				t.Fatal(err)
			}
		}
		for x, pt := range pts {
			if x == 0 && k == skipPushEpoch {
				continue
			}
			agg, err := center.AggregateFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			merged, _ := center.CoverageFor(k + 1)
			if err := pt.ApplyAggregateCovAt(k+1, agg, merged); err != nil {
				t.Fatal(err)
			}
			enh, err := center.EnhancementFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pt.ApplyEnhancementAt(k+1, enh); err != nil {
				t.Fatal(err)
			}
		}
		fe := fixtureEpoch{Epoch: k}
		for x, pt := range pts {
			for f := 0; f < fixtureFlows; f += 3 {
				v, cov := pt.QueryWithCoverage(uint64(f))
				fe.Queries = append(fe.Queries, fixtureQuery{
					Flow: uint64(f), Point: x,
					Estimate: strconv.FormatInt(v, 10),
					CovM:     cov.EpochsMerged, CovE: cov.EpochsExpected,
				})
			}
		}
		out.Epochs = append(out.Epochs, fe)
	}
	return out
}

// TestEstimateFixtures pins the exact protocol answers for every design
// variant, sequential (shards=1) and sharded (shards=4).
func TestEstimateFixtures(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("spread/shards=%d", shards), func(t *testing.T) {
			checkFixture(t, fmt.Sprintf("spread_shards%d", shards), runSpreadFixture(t, shards))
		})
		t.Run(fmt.Sprintf("size_cumulative/shards=%d", shards), func(t *testing.T) {
			checkFixture(t, fmt.Sprintf("size_cumulative_shards%d", shards),
				runSizeFixture(t, SizeModeCumulative, shards))
		})
		t.Run(fmt.Sprintf("size_delta/shards=%d", shards), func(t *testing.T) {
			checkFixture(t, fmt.Sprintf("size_delta_shards%d", shards),
				runSizeFixture(t, SizeModeDelta, shards))
		})
	}
}

// liveSource serves a center's window store to computeEpochPartial: the
// from-scratch join the receive-time rounds are held to. Cells are
// borrowed (the EpochSource contract).
type liveSource[S Sketch[S]] map[int]map[int64]S

func (ls liveSource[S]) EpochCells(epoch int64, points []int, visit func(int, S) error) error {
	for _, id := range points {
		if sk, ok := ls[id][epoch]; ok {
			if err := visit(id, sk); err != nil {
				return err
			}
		}
	}
	return nil
}
