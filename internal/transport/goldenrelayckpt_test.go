package transport

import "testing"

// goldenRelaySection runs a deterministic two-child tree over real TCP —
// a center, one relay, two points of different widths — for three
// healthy epochs, then has only point 0 end epoch 4, so the relay holds
// round 4 pending mid-merge. It returns the relay's checkpoint section:
// the push cache, the upstream retransmit buffer, the forwarding
// position, the children's epochs and the pending round.
func goldenRelaySection(t *testing.T, kind Kind) []byte {
	t.Helper()
	const relayID = 7
	widths := map[int]int{0: 32, 1: 64}
	m, d := 0, 0
	if kind == KindSpread {
		m = 4
	} else {
		d = 2
	}
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: kind, WindowN: 5, Enhance: true, Seed: 11,
		Widths: map[int]int{relayID: 64}, Weights: map[int]int{relayID: 2},
		M: m, D: d, DeltaUploads: true, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs, err := ServeRelay(RelayConfig{
		Addr: "127.0.0.1:0", UpstreamAddr: srv.Addr().String(), Relay: relayID,
		Kind: kind, WindowN: 5, Widths: widths, M: m, D: d, Seed: 11, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	pts := make([]*PointClient, 2)
	for id := range pts {
		pc, err := DialPoint(PointConfig{
			Addr: rs.Addr().String(), Point: id, Kind: kind,
			W: widths[id], M: m, D: d, Seed: 11, DeltaUploads: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		pts[id] = pc
	}
	record := func(k int64, id int) {
		for f := uint64(0); f < 16; f++ {
			pts[id].Record(f, uint64(id)<<16|uint64(k)<<8|f)
		}
	}
	for k := int64(1); k <= 3; k++ {
		for id, pc := range pts {
			record(k, id)
			if err := pc.EndEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		for _, pc := range pts {
			if !pc.WaitPushes(k) {
				t.Fatalf("no push for epoch %d", k+1)
			}
		}
	}
	record(4, 0)
	if err := pts[0].EndEpoch(); err != nil {
		t.Fatal(err)
	}
	if !rs.WaitUploads(7) {
		t.Fatal("relay never received point 0's epoch 4")
	}
	if !srv.WaitRounds(3) || !rs.WaitRounds(3) {
		t.Fatal("round 3 never finished")
	}
	sec, err := rs.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// TestGoldenRelayCheckpoint pins the relay's checkpoint section for the
// golden tree, for both designs. The section must also parse, which
// requires it to be canonical.
func TestGoldenRelayCheckpoint(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		t.Run(string(kind), func(t *testing.T) {
			sec := goldenRelaySection(t, kind)
			checkGoldenBytes(t, "ckpt_relay_"+string(kind), sec)
			if _, err := parseRelaySection(sec); err != nil {
				t.Fatal(err)
			}
		})
	}
}
