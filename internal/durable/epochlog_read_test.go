package durable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// The batched read path must return exactly what the per-cell path would:
// every present (point, epoch) cell once, with its exact bytes, missing
// cells silently skipped, across segment boundaries.
func TestLogGetMany(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir(), MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const points = 4
	for epoch := int64(1); epoch <= 12; epoch++ {
		for point := 0; point < points; point++ {
			if point == 2 && epoch%3 == 0 {
				continue // leave holes: a degraded point's missed uploads
			}
			mustAppend(t, l, point, epoch)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("want >=3 segments to cross boundaries, got %+v", st)
	}

	epochs := []int64{2, 3, 7, 11, 99} // 99 retained nowhere
	ids := []int{0, 1, 2, 3, 9}        // 9 never uploaded
	got := map[[2]int64][]byte{}
	err = l.GetMany(epochs, ids, func(point int, epoch int64, blob []byte) error {
		k := [2]int64{int64(point), epoch}
		if _, dup := got[k]; dup {
			t.Errorf("cell (%d,%d) visited twice", point, epoch)
		}
		// The blob is borrowed: copy before the visit returns.
		got[k] = append([]byte(nil), blob...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, epoch := range epochs {
		for _, point := range ids {
			b, ok, err := l.Get(point, epoch)
			if err != nil {
				t.Fatal(err)
			}
			gb, visited := got[[2]int64{int64(point), epoch}]
			if visited != ok {
				t.Fatalf("cell (%d,%d): GetMany visited=%v, Get present=%v", point, epoch, visited, ok)
			}
			if ok {
				want++
				if !bytes.Equal(gb, b) {
					t.Fatalf("cell (%d,%d): GetMany=%q, Get=%q", point, epoch, gb, b)
				}
			}
		}
	}
	if len(got) != want || want == 0 {
		t.Fatalf("GetMany visited %d cells, want %d (>0)", len(got), want)
	}

	// A visit error aborts the pass and surfaces unchanged.
	sentinel := errors.New("stop")
	if err := l.GetEpoch(2, []int{0, 1}, func(int, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("GetEpoch visit error = %v, want sentinel", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.GetEpoch(2, []int{0}, func(int, []byte) error { return nil }); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("GetEpoch after Close: %v, want ErrLogClosed", err)
	}
}

// Dropping a segment scrubs only the index entries that still point into
// it. A cell re-appended later lives in a newer segment; evicting the
// old segment must not take the fresh copy's index entry with it.
func TestLogEvictionKeepsReappendedCells(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir(), MaxSegmentBytes: 64, RetainEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(0, 1, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	for epoch := int64(2); epoch <= 12; epoch++ {
		mustAppend(t, l, 0, epoch)
	}
	// Re-append epoch 1 (a late duplicate) into the newest segment, then
	// compact away the old segments including the stale copy.
	if err := l.Append(0, 1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	// The stale copy's segment is gone (epoch 2 rode along with it) ...
	if _, ok, err := l.Get(0, 2); err != nil || ok {
		t.Fatalf("old segment not evicted: Get(0,2) ok=%v err=%v", ok, err)
	}
	// ... but the re-appended epoch-1 copy lives in the newest segment.
	b, ok, err := l.Get(0, 1)
	if err != nil || !ok {
		t.Fatalf("re-appended cell evicted with the old segment: ok=%v err=%v", ok, err)
	}
	if string(b) != "fresh" {
		t.Fatalf("Get(0,1) = %q, want the re-appended copy", b)
	}
}

// Held must agree with Has for every (point, epoch) of the span once a
// compaction evicted the oldest epochs, and list each epoch's ids in the
// order of the requested points.
func TestLogHeldMatchesHas(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir(), MaxSegmentBytes: 64, RetainEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for epoch := int64(1); epoch <= 12; epoch++ {
		for point := 0; point < 4; point++ {
			if (int(epoch)+point)%3 != 0 {
				mustAppend(t, l, point, epoch)
			}
		}
	}
	// A synchronous pass first: it leaves a background one nothing to
	// evict, so the index holds still while Held and Has read it.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := l.Span(); first <= 1 {
		t.Fatalf("compaction evicted nothing: first=%d", first)
	}
	points := []int{0, 2, 3, 5}
	held := l.Held(0, 13, points)
	if len(held) != 14 {
		t.Fatalf("Held over 14 epochs returned %d", len(held))
	}
	for i, ids := range held {
		epoch := int64(i)
		var want []int
		for _, point := range points {
			if l.Has(point, epoch) {
				want = append(want, point)
			}
		}
		if fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Errorf("Held epoch %d = %v, Has says %v", epoch, ids, want)
		}
	}
	if held := l.Held(5, 4, points); held != nil {
		t.Fatalf("Held over an empty span = %v", held)
	}
}

// The read path must stay at one allocation per Get: the copy handed
// across the API boundary. The scratch read buffer is pooled.
func TestLogGetAllocs(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	blob := make([]byte, 256)
	for epoch := int64(1); epoch <= 64; epoch++ {
		if err := l.Append(0, epoch, blob); err != nil {
			t.Fatal(err)
		}
	}
	var epoch int64
	allocs := testing.AllocsPerRun(200, func() {
		epoch = epoch%64 + 1
		if _, ok, err := l.Get(0, epoch); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Get allocates %.1f times per op, want <=1 (the API-boundary copy)", allocs)
	}
}

// GetMany must prune segments by their epoch/point spans without losing
// cells: a query spanning only the newest epochs still finds them when
// old segments dominate the file list, and interleaved per-point holes
// don't confuse the span metadata.
func TestLogGetManyWideLog(t *testing.T) {
	l, err := OpenLog(LogConfig{Dir: t.TempDir(), MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const points, epochs = 6, 40
	for epoch := int64(1); epoch <= epochs; epoch++ {
		for point := 0; point < points; point++ {
			mustAppend(t, l, point, epoch)
		}
	}
	for _, tail := range []int64{1, 5, epochs} {
		ids := make([]int, points)
		want := make([]int64, 0, tail)
		for i := range ids {
			ids[i] = i
		}
		for e := epochs - tail + 1; e <= epochs; e++ {
			want = append(want, e)
		}
		seen := 0
		err := l.GetMany(want, ids, func(point int, epoch int64, blob []byte) error {
			if !bytes.Equal(blob, logBlob(point, epoch)) {
				return fmt.Errorf("cell (%d,%d) bytes mismatch", point, epoch)
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != int(tail)*points {
			t.Fatalf("tail=%d: visited %d cells, want %d", tail, seen, int(tail)*points)
		}
	}
}
