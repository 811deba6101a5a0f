package core

import (
	"math"
	"testing"
)

// aggregateSpan must refuse every k below 2 before its arithmetic, so a k
// near math.MinInt64 cannot wrap around to a window of the top epochs,
// and must stay exact up to math.MaxInt64.
func TestHistoryAggregateSpanEdges(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		k           int64
		first, last int64
		ok          bool
	}{
		{k: math.MinInt64},
		{k: math.MinInt64 + 1},
		{k: 0},
		{k: 1},
		{k: 2, first: 1, last: 1, ok: true},
		{k: math.MaxInt64, first: math.MaxInt64 - n + 2, last: math.MaxInt64 - 1, ok: true},
	} {
		first, last, ok := aggregateSpan(tc.k, n)
		if ok != tc.ok || ok && (first != tc.first || last != tc.last) {
			t.Errorf("aggregateSpan(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				tc.k, n, first, last, ok, tc.first, tc.last, tc.ok)
		}
	}

	// Both query forms that take k answer "no completed window" for it.
	ctr, src, _ := replayFixture(t, 4)
	for _, k := range []int64{math.MinInt64, math.MinInt64 + 1, 0, 1} {
		if _, _, err := ctr.QueryAtFrom(0, k, src); err == nil {
			t.Errorf("QueryAtFrom(0, %d) answered", k)
		}
		if _, _, err := ctr.QueryWindowLive(0, k); err == nil {
			t.Errorf("QueryWindowLive(0, %d) answered", k)
		}
	}
}
