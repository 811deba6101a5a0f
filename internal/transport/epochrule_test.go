package transport

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestRelayHelloEpochRule sends a relay Hellos whose state epoch lies
// outside the epoch rule (core.CheckEpoch). Each must be refused before
// the Welcome. Admitted, a state epoch of MinInt64 wrapped childWelcome's
// StateEpoch - n - 1 to near MaxInt64: the relay's forwarding position
// jumped there and every later upload from any child was dropped as a
// duplicate, wedging the subtree. After the refusals the tree must still
// run a healthy round to the oracle.
func TestRelayHelloEpochRule(t *testing.T) {
	noLeak(t)
	forBothKinds(t, func(t *testing.T, kind Kind) {
		c := newTCluster(t, kind, "")
		pushWant := make([]int64, fmP)
		for k := 1; k <= 3; k++ {
			c.healthyEpoch(k, pushWant)
		}
		for _, epoch := range []int64{math.MinInt64, -1, core.EpochLimit, math.MaxInt64} {
			conn, err := c.fnet.DialerTo("relay")("")
			if err != nil {
				t.Fatal(err)
			}
			hello := Hello{Point: 0, Kind: kind, W: fmW, StateEpoch: epoch}
			if _, err := conn.Write(frameOf(hello)); err != nil {
				t.Fatal(err)
			}
			if w, err := readMessage(conn, frameWelcome, parseWelcome); err == nil {
				t.Fatalf("hello with state epoch %d admitted: %+v", epoch, w)
			}
			conn.Close()
		}
		if got := c.relay.eng.forwarded(); got != 3 {
			t.Fatalf("relay forwarding position %d after the refused hellos, want 3", got)
		}
		c.healthyEpoch(4, pushWant)
		for x := range c.pts {
			c.checkFullRecovery(x, 5, "after refused hellos")
		}
	})
}
