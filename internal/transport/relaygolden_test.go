package transport

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vhll"
)

// The relay's upstream frames are wire-compatibility surface exactly like
// the point messages: a tree deployment mixes relay and point binaries
// against one center, so the combined Upload a relay emits for a
// completed round — the merged child sketches, compact-encoded — must
// stay byte-stable. These goldens drive the real merge engine with fixed
// child uploads and pin the resulting frames for every backend, plus the
// relay-shaped Hello whose Weight and Shard fields older centers must keep
// tolerating.

func fuzzVhllSketchBytes(t interface{ Fatal(args ...any) }) []byte {
	sk, err := vhll.New(vhll.Params{PhysicalRegisters: 16, VirtualRegisters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 30; e++ {
		sk.Record(7, uint64(e))
	}
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// relayGoldenFrames builds one combined upload per backend by merging two
// fixed child epochs through a real relay engine, and the relay Hello.
func relayGoldenFrames(t *testing.T) map[string]any {
	t.Helper()
	frames := map[string]any{
		"relay_hello": Hello{
			Point: 7, Kind: KindSpread, W: 16, StateEpoch: 4,
			Weight: 3, Shard: 1,
		},
	}
	for _, tc := range []struct {
		name   string
		kind   Kind
		sketch string
		child  func(t interface{ Fatal(args ...any) }) []byte
	}{
		{"relay_upload_spread_packed", KindSpread, SketchRskt, fuzzSpreadSketchBytes},
		{"relay_upload_vhll_packed", KindSpread, SketchVhll, fuzzVhllSketchBytes},
		{"relay_upload_size_packed", KindSize, "", fuzzSizeSketchBytes},
	} {
		eng, err := newRelayEngine(RelayConfig{
			Kind: tc.kind, Sketch: tc.sketch, WindowN: 5,
			Widths: map[int]int{0: 16, 1: 16}, M: 4, D: 2, Seed: 5, Relay: 7,
		})
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		for child := 0; child < 2; child++ {
			if err := eng.receiveChild(Upload{Point: child, Epoch: 1, Sketch: tc.child(t)}); err != nil {
				t.Fatalf("%s: child %d: %v", tc.name, child, err)
			}
		}
		epoch, payload, ok, err := eng.nextReady()
		if err != nil || !ok {
			t.Fatalf("%s: nextReady ok=%v err=%v", tc.name, ok, err)
		}
		frames[tc.name] = Upload{Point: 7, Epoch: epoch, Sketch: payload}
	}
	return frames
}

func TestGoldenRelayFrames(t *testing.T) {
	for name, msg := range relayGoldenFrames(t) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		path := filepath.Join("testdata", "golden", name+".bin")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: relay wire format changed (%d bytes, golden %d).\n"+
				"This breaks relay↔center version compatibility; if that is "+
				"intended, regenerate with -update.", name, buf.Len(), len(want))
		}
	}
}

// TestGoldenRelayDecodable proves each pinned relay frame still decodes
// into the current Upload type with the merged payload intact, and that
// the payload still decodes through a fresh relay engine — new relays
// reading old bytes.
func TestGoldenRelayDecodable(t *testing.T) {
	want := relayGoldenFrames(t)
	for name, msg := range want {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if name == "relay_hello" {
			var h Hello
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&h); err != nil {
				t.Fatal(err)
			}
			if h != msg.(Hello) {
				t.Errorf("relay_hello decoded to %+v", h)
			}
			continue
		}
		var u Upload
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&u); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wu := msg.(Upload)
		if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) {
			t.Errorf("%s decoded to Point=%d Epoch=%d (%d payload bytes)",
				name, u.Point, u.Epoch, len(u.Sketch))
		}
	}
}
