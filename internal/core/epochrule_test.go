package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// outOfRule lists upload epochs outside [1, EpochLimit).
var outOfRule = []int64{0, -7, math.MinInt64, EpochLimit, math.MaxInt64}

func TestCheckEpochBounds(t *testing.T) {
	for _, tc := range []struct {
		epoch, lowest int64
		ok            bool
	}{
		{0, 0, true}, {-1, 0, false}, {0, 1, false}, {1, 1, true},
		{EpochLimit - 1, 1, true}, {EpochLimit, 0, false}, {math.MaxInt64, 1, false},
	} {
		if err := CheckEpoch(tc.epoch, tc.lowest); (err == nil) != tc.ok {
			t.Errorf("CheckEpoch(%d, %d) = %v, want ok=%v", tc.epoch, tc.lowest, err, tc.ok)
		}
	}
}

// TestUploadEpochRule holds the center and the relay to one rule for an
// upload's epoch: 1 <= epoch < EpochLimit. Out of it, an upload is an
// error (not an idempotent drop) and leaves the node unchanged. Before
// the rule a spread center accepted epoch MaxInt64, whose trim dropped
// every point's window (CoverageFor(5) fell from 6/6 to 0/6) and whose
// MaxEpoch()+1 wrapped; a relay accepted it too.
func TestUploadEpochRule(t *testing.T) {
	rp := rskt.Params{W: 8, M: 16, Seed: 1}
	spread, err := NewSpreadCenter(5, map[int]rskt.Params{0: rp, 1: rp})
	if err != nil {
		t.Fatal(err)
	}
	cp := countmin.Params{D: 2, W: 64, Seed: 1}
	cum, err := NewSizeCenter(5, map[int]countmin.Params{0: cp, 1: cp}, SizeModeCumulative)
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewSizeCenter(5, map[int]countmin.Params{0: cp, 1: cp}, SizeModeDelta)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 4; e++ {
		for x := 0; x < 2; x++ {
			sk := rskt.New(rp)
			sk.Record(uint64(x), uint64(e))
			if err := spread.Receive(x, e, sk); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*SizeCenter{cum, del} {
				if err := c.Receive(x, e, testUpload(e)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	type node struct {
		name string
		recv func(epoch int64) error
		max  func() int64
		cov  func() (int, int)
	}
	nodes := []node{
		{"spread center", func(e int64) error { return spread.Receive(0, e, rskt.New(rp)) }, spread.MaxEpoch,
			func() (int, int) { return spread.CoverageFor(5) }},
		{"cumulative size center", func(e int64) error { return cum.Receive(0, e, testUpload(e)) }, cum.MaxEpoch,
			func() (int, int) { return cum.CoverageFor(5) }},
		{"delta size center", func(e int64) error { return del.Receive(0, e, testUpload(e)) }, del.MaxEpoch,
			func() (int, int) { return del.CoverageFor(5) }},
	}
	for _, n := range nodes {
		for _, e := range outOfRule {
			if err := n.recv(e); err == nil || errors.Is(err, ErrDuplicateUpload) || errors.Is(err, ErrUploadGap) {
				t.Errorf("%s: upload epoch %d: err = %v, want an epoch-rule error", n.name, e, err)
			}
		}
		if got := n.max(); got != 4 {
			t.Errorf("%s: MaxEpoch = %d after refused uploads, want 4", n.name, got)
		}
		if merged, expected := n.cov(); merged != 6 || expected != 6 {
			t.Errorf("%s: CoverageFor(5) = %d/%d after refused uploads, want 6/6", n.name, merged, expected)
		}
	}

	r := newTestRelay(t, 5, 0, 1)
	for _, e := range outOfRule {
		if err := r.Receive(0, e, testUpload(1)); err == nil || errors.Is(err, ErrDuplicateUpload) {
			t.Errorf("relay: upload epoch %d: err = %v, want an epoch-rule error", e, err)
		}
	}
	if got := r.MaxEpoch(); got != 0 {
		t.Errorf("relay: MaxEpoch = %d after refused uploads, want 0", got)
	}
	// The rule's last epoch is accepted, and the window arithmetic beside
	// it stays in range.
	if err := r.Receive(0, EpochLimit-1, testUpload(1)); err != nil {
		t.Fatalf("relay: upload epoch EpochLimit-1: %v", err)
	}
	if err := spread.Receive(1, EpochLimit-1, rskt.New(rp)); err != nil {
		t.Fatalf("spread center: upload epoch EpochLimit-1: %v", err)
	}
	if next := spread.MaxEpoch() + 1; next != EpochLimit {
		t.Fatalf("spread center: MaxEpoch()+1 = %d, want %d", next, EpochLimit)
	}
}
