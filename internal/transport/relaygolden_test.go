package transport

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The relay's upstream frames are wire format exactly like the point
// messages: the combined Upload a relay emits for a completed round — the
// merged child sketches, compact-encoded — must stay byte-stable. These
// goldens drive the real merge engine with fixed child uploads and pin the
// resulting frames for both designs, plus the relay-shaped Hello with its
// Weight and Shard fields.

// relayGoldenFrames builds one combined upload per design by merging two
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
		name  string
		kind  Kind
		child func(t interface{ Fatal(args ...any) }) []byte
	}{
		{"relay_upload_spread_packed", KindSpread, fuzzSpreadSketchBytes},
		{"relay_upload_size_packed", KindSize, fuzzSizeSketchBytes},
	} {
		eng, err := newRelayEngine(RelayConfig{
			Kind: tc.kind, WindowN: 5,
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
	checkGoldenFrames(t, relayGoldenFrames(t))
}

// TestGoldenRelayDecodable proves each pinned relay frame decodes into
// the message it pins, merged payload intact.
func TestGoldenRelayDecodable(t *testing.T) {
	for name, msg := range relayGoldenFrames(t) {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		got := parseFrame(t, b)
		if h, ok := msg.(Hello); ok {
			if got != h {
				t.Errorf("relay_hello decoded to %+v", got)
			}
			continue
		}
		u, wu := got.(Upload), msg.(Upload)
		if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) {
			t.Errorf("%s decoded to Point=%d Epoch=%d (%d payload bytes)",
				name, u.Point, u.Epoch, len(u.Sketch))
		}
	}
}
