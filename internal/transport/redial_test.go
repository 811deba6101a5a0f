package transport

import (
	"testing"
)

func TestRedialPreservesStateAndResumes(t *testing.T) {
	const (
		n, w, m = 5, 32, 16
		seed    = 3
	)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: n,
		Widths: map[int]int{0: w, 1: w}, M: m, Seed: seed, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	points := make([]*PointClient, 2)
	for x := range points {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: x, Kind: KindSpread,
			W: w, M: m, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		points[x] = pc
	}

	// Run two clean epochs.
	for k := 1; k <= 2; k++ {
		for _, pc := range points {
			for e := 0; e < 50; e++ {
				pc.Record(1, uint64(k*100+e))
			}
			if err := pc.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "two rounds", func() bool {
		st := points[0].Stats()
		return st.PushesApplied+st.PushesLate >= 2
	})

	// Drop and redial point 0 mid-protocol.
	if err := points[0].Redial(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reconnection visible at center", func() bool {
		return srv.Stats().ConnectedPoints == 2
	})

	// Local state survived the reconnect.
	if got, err := points[0].QuerySpread(1); err != nil || got <= 0 {
		t.Fatalf("state lost across redial: got %.1f, err %v", got, err)
	}

	// The protocol keeps running: another epoch exchanges cleanly.
	for _, pc := range points {
		pc.Record(1, 9999)
		if err := pc.EndEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-redial round", func() bool {
		st := srv.Stats()
		return st.RoundsPushed >= 3
	})
}

// Epochs that end while the center is unreachable used to be silently
// dropped; the point now buffers them and retransmits on Redial, so the
// center's window has no gaps.
func TestRedialRetransmitsBufferedUploads(t *testing.T) {
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSize, WindowN: 5,
		Widths: map[int]int{0: 32}, D: 2, Seed: 1, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc, err := DialPoint(PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: KindSize, W: 32, D: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// One clean epoch.
	pc.Record(1, 0)
	if err := pc.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first upload", func() bool { return srv.Stats().UploadsReceived == 1 })

	// Kill the connection under the client and wait until it notices.
	pc.mu.Lock()
	conn := pc.up.conn
	pc.mu.Unlock()
	conn.Close()
	waitFor(t, "failure detected", func() bool {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.up.enc == nil
	})

	// Two epochs end during the outage: EndEpoch must report the outage
	// but keep rolling the window and buffer both uploads.
	for k := 0; k < 2; k++ {
		pc.Record(2, 0)
		if err := pc.EndEpoch(); err == nil {
			t.Fatal("EndEpoch succeeded on a dead connection")
		}
	}
	if got := pc.Epoch(); got != 4 {
		t.Fatalf("epoch stalled during outage: got %d, want 4", got)
	}
	if st := srv.Stats(); st.UploadsReceived != 1 {
		t.Fatalf("center received %d uploads during outage, want 1", st.UploadsReceived)
	}

	// Reconnect: the buffered epochs are retransmitted in order.
	if err := pc.Redial(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "buffered uploads retransmitted", func() bool {
		return srv.Stats().UploadsReceived == 3
	})
	if st := pc.Stats(); st.UploadsRetried != 2 {
		t.Fatalf("UploadsRetried = %d, want 2", st.UploadsRetried)
	}

	// The protocol resumes cleanly after the recovery.
	pc.Record(3, 0)
	if err := pc.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-recovery upload", func() bool {
		return srv.Stats().UploadsReceived == 4
	})
}

func TestCenterStatsCount(t *testing.T) {
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSize, WindowN: 5,
		Widths: map[int]int{0: 16}, D: 2, Seed: 1, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if st := srv.Stats(); st.ConnectedPoints != 0 || st.UploadsReceived != 0 {
		t.Fatalf("fresh center stats: %+v", st)
	}
	pc, err := DialPoint(PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: KindSize, W: 16, D: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	waitFor(t, "connection", func() bool { return srv.Stats().ConnectedPoints == 1 })
	pc.Record(1, 0)
	if err := pc.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "upload counted", func() bool {
		st := srv.Stats()
		return st.UploadsReceived == 1 && st.RoundsPushed == 1
	})
}
