package durable

import (
	"bytes"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"
)

// GetEpoch holds the log's read lock only while it looks up the index
// and reads; visit runs unlocked. A visit that blocked appends would stall
// every center round that lands during a replay, and a visit that blocked
// compaction would deadlock one that calls back into the Log.
func TestLogGetEpochVisitRunsUnlocked(t *testing.T) {
	// inVisit runs op on another goroutine from inside the first visit of
	// a GetEpoch(1, {0, 1}) pass and reports whether it finished within a
	// second, then checks every visited blob against what was appended.
	inVisit := func(t *testing.T, l *Log, op func() error) {
		t.Helper()
		var wg sync.WaitGroup
		defer wg.Wait()
		visits := 0
		err := l.GetEpoch(1, []int{0, 1}, func(point int, blob []byte) error {
			visits++
			want := logBlob(point, 1)
			if visits == 1 {
				done := make(chan error, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					done <- op()
				}()
				select {
				case err := <-done:
					if err != nil {
						return err
					}
				case <-time.After(time.Second):
					return errors.New("log operation blocked while visit ran")
				}
			}
			if !bytes.Equal(blob, want) || crc32.ChecksumIEEE(blob) != crc32.ChecksumIEEE(want) {
				t.Errorf("cell (%d,1): visited blob %q changed under the visit, want %q", point, blob, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if visits != 2 {
			t.Fatalf("visited %d cells, want 2", visits)
		}
	}

	t.Run("append", func(t *testing.T) {
		l, err := OpenLog(LogConfig{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		mustAppend(t, l, 0, 1)
		mustAppend(t, l, 1, 1)
		inVisit(t, l, func() error { return l.Append(0, 2, logBlob(0, 2)) })
		wantCell(t, l, 0, 2, true)
	})

	t.Run("compact drops the segment being read", func(t *testing.T) {
		// 64-byte segments roll after two entries: each epoch's pair gets
		// its own segment. With two epochs retained nothing is evictable
		// until epoch 4 lands, inside the visit.
		l, err := OpenLog(LogConfig{Dir: t.TempDir(), MaxSegmentBytes: 64, RetainEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for epoch := int64(1); epoch <= 2; epoch++ {
			mustAppend(t, l, 0, epoch)
			mustAppend(t, l, 1, epoch)
		}
		inVisit(t, l, func() error {
			if err := l.Append(0, 4, logBlob(0, 4)); err != nil {
				return err
			}
			return l.Compact()
		})
		wantCell(t, l, 0, 1, false)
		wantCell(t, l, 1, 1, false)
		wantCell(t, l, 0, 4, true)
	})
}
