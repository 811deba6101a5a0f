package core

// Coverage quantifies how much of the eq. (1)/(2) window a point's query
// target actually contains. The center part of the window is the union of
// point-epochs {(x, e) : all points x, e in [k-n+1, k-2]} during epoch k;
// when the protocol degrades (center outage, lost uploads, dropped pushes)
// some of those point-epochs never reach the point, and a query answers
// from what survived instead of silently pretending the window is whole.
//
// EpochsExpected counts the point-epochs a healthy deployment would have
// merged (points × window epochs, clamped at cluster start-up);
// EpochsMerged counts how many the applied aggregate actually contained.
// Local epochs are always present (they never cross the network) and are
// not counted on either side.
type Coverage struct {
	// EpochsMerged is the number of point-epoch uploads represented in
	// the aggregate backing the current query target.
	EpochsMerged int
	// EpochsExpected is the number of point-epoch uploads eq. (1)/(2)
	// calls for at the current epoch.
	EpochsExpected int
}

// Fraction returns EpochsMerged/EpochsExpected, or 1 when nothing is
// expected (standalone points, cluster start-up before the first full
// window).
func (c Coverage) Fraction() float64 {
	if c.EpochsExpected <= 0 {
		return 1
	}
	f := float64(c.EpochsMerged) / float64(c.EpochsExpected)
	if f > 1 {
		return 1
	}
	return f
}

// Full reports whether the query target holds the entire expected window.
func (c Coverage) Full() bool { return c.EpochsMerged >= c.EpochsExpected }

// aggregateSpan returns the inclusive epoch range [first, last] the
// center's aggregate pushed during epoch k covers (eq. (5)): k-n+2 .. k-1,
// clamped to real epochs (>= 1). It returns ok=false when the range is
// empty (cluster start-up, or any k < 2, checked before the arithmetic so
// a k near math.MinInt64 cannot wrap around to the top epochs).
func aggregateSpan(k int64, windowN int) (first, last int64, ok bool) {
	if k < 2 {
		return 0, 0, false
	}
	first, last = k-int64(windowN)+2, k-1
	if first < 1 {
		first = 1
	}
	return first, last, first <= last
}

// expectedPointEpochs is the number of point-epochs the aggregate applied
// during epoch k should carry for a cluster of the given size.
func expectedPointEpochs(points, windowN int, k int64) int {
	if points <= 0 || windowN <= 0 {
		return 0
	}
	first, last, ok := aggregateSpan(k, windowN)
	if !ok {
		return 0
	}
	return points * int(last-first+1)
}
