package transport

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/faultnet"
)

// fuzzRelaySeeds are the committed child-stream inputs for FuzzRelayConn:
// well-formed child handshakes and uploads, an upload under the retired
// fixed encoding's magic (which the relay must reject like any other bad
// payload), plus truncated, corrupted and hostile variants.
func fuzzRelaySeeds(t interface{ Fatal(args ...any) }) [][]byte {
	helloOK := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16})
	wrongShard := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16, Shard: 1})
	upload := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: fuzzSizeSketchBytes(t)})
	uploadRetired := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: append([]byte{0xC3}, fuzzSizeSketchBytes(t)[1:]...)})
	uploadDup := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: fuzzSizeSketchBytes(t)},
		Upload{Point: 0, Epoch: 1, Sketch: fuzzSizeSketchBytes(t)})
	badSketch := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: []byte{0xC3, 0xFF, 0xFF, 0xFF, 0xFF}})
	hugeEpoch := fuzzGob(t, Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1 << 50, Sketch: fuzzSizeSketchBytes(t)})
	unknownChild := fuzzGob(t, Hello{Point: 9, Kind: KindSize, W: 16})
	wrongKind := fuzzGob(t, Hello{Point: 0, Kind: KindSpread, W: 16})
	corrupt := append([]byte(nil), upload...)
	if len(corrupt) > 4 {
		corrupt[len(corrupt)/2] ^= 0xFF
	}
	return [][]byte{
		{},
		helloOK,
		wrongShard,
		helloOK[:len(helloOK)/2],
		upload,
		uploadRetired,
		uploadDup,
		badSketch,
		hugeEpoch,
		unknownChild,
		wrongKind,
		corrupt,
		bytes.Repeat([]byte{0xFF}, 64),
	}
}

// FuzzRelayConn feeds arbitrary bytes to a live relay as a child
// connection's stream — the decode/merge surface a compromised or buggy
// point can reach. Whatever the bytes decode to, the relay must stay up,
// keep its upstream hop healthy, and keep welcoming well-formed children.
func FuzzRelayConn(f *testing.F) {
	fnet := faultnet.New(1)
	srv, err := ServeCenter(CenterConfig{
		Listener: fnet.Listen(), Kind: KindSize, WindowN: 3,
		Widths: map[int]int{2: 16}, Weights: map[int]int{2: 2},
		D: 2, Seed: 1, DeltaUploads: true, Logf: quietLogf,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	rel, err := ServeRelay(RelayConfig{
		Listener: fnet.ListenAt("relay"), UpstreamAddr: "faultnet:center",
		UpstreamDial: fnet.DialerTo(faultnet.DefaultNode),
		Relay:        2, Kind: KindSize, WindowN: 3,
		Widths: map[int]int{0: 16, 1: 16}, D: 2, Seed: 1, Logf: quietLogf,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { rel.Close() })
	dial := fnet.DialerTo("relay")
	for _, s := range fuzzRelaySeeds(f) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := dial("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.Close()

		// Liveness probe: the relay must still answer a clean child
		// handshake with the upstream cluster's shape.
		probe, err := dial("")
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		if err := gob.NewEncoder(probe).Encode(Hello{Point: 1, Kind: KindSize, W: 16}); err != nil {
			t.Fatalf("probe hello: %v", err)
		}
		var w Welcome
		if err := gob.NewDecoder(probe).Decode(&w); err != nil {
			t.Fatalf("relay stopped welcoming after %q: %v", data, err)
		}
		if w.WindowN != 3 || w.Points != 2 {
			t.Fatalf("welcome corrupted: %+v", w)
		}
	})
}
