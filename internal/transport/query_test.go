package transport

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestHistoryHandlerPanicKeepsServing: a historical handler that panics
// costs its own request — answered NaN, zero coverage, the panic logged —
// and the same connection goes on to answer the next request.
func TestHistoryHandlerPanicKeepsServing(t *testing.T) {
	noLeak(t)
	var mu sync.Mutex
	var logged []string
	srv, err := ServeQueriesHist("127.0.0.1:0", func(uint64) (float64, core.Coverage) {
		return 7, core.Coverage{EpochsMerged: 1, EpochsExpected: 1}
	}, HistoryHandler{
		At: func(f uint64, k int64) (float64, core.Coverage, error) {
			return float64(f) + float64(k), core.Coverage{EpochsMerged: 2, EpochsExpected: 3}, nil
		},
		Range: func(f uint64, from, to int64) (float64, core.Coverage, error) {
			var parts []int
			return float64(parts[from]), core.Coverage{}, nil // index out of range
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, format)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	qc, err := DialQuery(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	for i := 0; i < 2; i++ {
		if _, cov, err := qc.QueryRange(1, 4, 9); err == nil || cov != (core.Coverage{}) {
			t.Fatalf("panicking range handler answered err=%v coverage %+v, want the NaN answer", err, cov)
		}
		v, cov, err := qc.QueryAt(1, 4)
		if err != nil || v != 5 || cov != (core.Coverage{EpochsMerged: 2, EpochsExpected: 3}) {
			t.Fatalf("QueryAt after a panic = %v, %+v, %v", v, cov, err)
		}
	}
	if v, err := qc.Query(1); err != nil || v != 7 {
		t.Fatalf("live query after a panic = %v, %v", v, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 2 || !strings.Contains(logged[0], "panicked") {
		t.Fatalf("logged %q, want one panic line per panicking request", logged)
	}
}
