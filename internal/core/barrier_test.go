package core

import (
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
)

// TestBarrierStateBounded runs 500 epochs in which one of two children
// never uploads: no round ever completes. The merger's per-epoch state
// must still follow the window — at most n + 2 rounds at a center of
// either design and at a relay — where a barrier that forgets a round
// only when it completes holds one entry per epoch forever.
func TestBarrierStateBounded(t *testing.T) {
	const n, epochs = 5, 500
	cp := countmin.Params{D: 2, W: 64, Seed: 1}
	rp := rskt.Params{W: 8, M: 16, Seed: 1}
	spread, err := NewSpreadCenter(n, map[int]rskt.Params{0: rp, 1: rp})
	if err != nil {
		t.Fatal(err)
	}
	cum, err := NewSizeCenter(n, map[int]countmin.Params{0: cp, 1: cp}, SizeModeCumulative)
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewSizeCenter(n, map[int]countmin.Params{0: cp, 1: cp}, SizeModeDelta)
	if err != nil {
		t.Fatal(err)
	}
	relay := newTestRelay(t, n, 0, 1)
	nodes := []struct {
		name     string
		receive  func(e int64) error
		rounds   func() int
		complete func(e int64) bool
	}{
		{"spread center", func(e int64) error { return spread.Receive(0, e, rskt.New(rp)) },
			func() int { return len(spread.part) }, spread.Complete},
		{"cumulative size center", func(e int64) error { return cum.Receive(0, e, testUpload(e)) },
			func() int { return len(cum.part) }, cum.Complete},
		{"delta size center", func(e int64) error { return del.Receive(0, e, testUpload(e)) },
			func() int { return len(del.part) }, del.Complete},
		{"relay", func(e int64) error { return relay.Receive(0, e, testUpload(e)) },
			func() int { return len(relay.part) }, relay.Complete},
	}
	for _, node := range nodes {
		for e := int64(1); e <= epochs; e++ {
			if err := node.receive(e); err != nil {
				t.Fatalf("%s: epoch %d: %v", node.name, e, err)
			}
			if held := node.rounds(); held > n+2 {
				t.Fatalf("%s: %d rounds held after epoch %d with a silent child, want <= %d", node.name, held, e, n+2)
			}
			if node.complete(e) {
				t.Fatalf("%s: round %d complete without child 1", node.name, e)
			}
		}
	}
}
