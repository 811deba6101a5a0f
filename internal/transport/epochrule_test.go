package transport

import (
	"io"
	"math"
	"net"
	"testing"

	"repro/internal/core"
)

// TestRelayHelloEpochRule sends a relay Hellos whose state epoch lies
// outside the epoch rule (core.CheckEpoch). Each must be refused before
// the Welcome. Admitted, a state epoch of MinInt64 wrapped childWelcome's
// StateEpoch - n - 1 to near MaxInt64: the relay's forwarding position
// jumped there and every later upload from any child was dropped as a
// duplicate, wedging the subtree. An in-range state epoch far past the
// parent's clock is admitted but leaves the position alone. After both
// the tree must still run a healthy round to the oracle.
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
		if got := c.relay.eng.Forwarded(); got != 3 {
			t.Fatalf("relay forwarding position %d after the refused hellos, want 3", got)
		}
		// An in-range state epoch far past the parent's clock is admitted,
		// but it must not move the forwarding position: taken, it sealed
		// every round below it, and the real point 0's redial then
		// fast-forwarded its clock past the barrier's reach.
		conn, err := c.fnet.DialerTo("relay")("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frameOf(Hello{Point: 0, Kind: kind, W: fmW, StateEpoch: core.EpochLimit - 1})); err != nil {
			t.Fatal(err)
		}
		w, err := readMessage(conn, frameWelcome, parseWelcome)
		if err != nil {
			t.Fatalf("in-range hello refused: %v", err)
		}
		conn.Close()
		if w.ResumeEpoch > 4 {
			t.Fatalf("welcome to a far-ahead hello resumes at epoch %d, want <= 4", w.ResumeEpoch)
		}
		if got := c.relay.eng.Forwarded(); got != 3 {
			t.Fatalf("relay forwarding position %d after a far-ahead hello, want 3", got)
		}
		// The hello took over point 0's registration; the real point
		// redials and must resume in epoch 4.
		if err := c.pts[0].Redial(); err != nil {
			t.Fatal(err)
		}
		if got := c.pts[0].Stats().Epoch; got != 4 {
			t.Fatalf("point 0 resumed in epoch %d after the far-ahead hello, want 4", got)
		}
		c.healthyEpoch(4, pushWant)
		for x := range c.pts {
			c.checkFullRecovery(x, 5, "after refused hellos")
		}
	})
}

// TestPointWelcomeEpochRule has a parent answer a point's Hello with a
// Welcome whose ResumeEpoch or PointEpoch lies outside the epoch rule
// (core.CheckEpoch). The point must refuse it and fail the dial. Taken, a
// ResumeEpoch of MaxInt64 fast-forwarded the point's clock there, and its
// next EndEpoch formed an upload epoch that wrapped int64. An in-range
// Welcome still fast-forwards the clock.
func TestPointWelcomeEpochRule(t *testing.T) {
	noLeak(t)
	welcome := func(w Welcome) (*PointClient, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, err := readMessage(conn, frameHello, parseHello); err != nil {
				return
			}
			if _, err := conn.Write(frameOf(w)); err != nil {
				return
			}
			_, _ = io.Copy(io.Discard, conn) // until the point hangs up
		}()
		pc, err := DialPoint(PointConfig{
			Addr: ln.Addr().String(), Point: 0, Kind: KindSize, W: 16, D: 2, Seed: 1, RedialAttempts: 1,
		})
		if err != nil {
			<-served
		}
		return pc, err
	}
	for _, w := range []Welcome{
		{ResumeEpoch: math.MaxInt64},
		{ResumeEpoch: core.EpochLimit},
		{ResumeEpoch: -1},
		{ResumeEpoch: 3, PointEpoch: math.MinInt64},
		{ResumeEpoch: 3, PointEpoch: core.EpochLimit},
	} {
		w.WindowN, w.Points = 4, 1
		if pc, err := welcome(w); err == nil {
			epoch := pc.Stats().Epoch
			pc.Close()
			t.Fatalf("welcome %+v accepted: the point's epoch is %d", w, epoch)
		}
	}
	pc, err := welcome(Welcome{WindowN: 4, Points: 1, ResumeEpoch: core.EpochLimit - 1, PointEpoch: 2})
	if err != nil {
		t.Fatalf("in-range welcome refused: %v", err)
	}
	defer pc.Close()
	if got := pc.Stats().Epoch; got != core.EpochLimit-1 {
		t.Fatalf("point epoch %d after an in-range welcome, want %d", got, core.EpochLimit-1)
	}
}
