package transport

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The binary frames of the protocol messages are the wire format. Each
// golden file holds one frame (length, kind, header, sketch bytes) for a
// fixed message; changing a header field, a frame kind or a sketch
// encoding embedded in a payload changes the bytes and fails the
// comparison. Regenerate deliberately with -update after an intended
// format change, and call the diff out in review.

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format files in testdata/golden")

// heartbeat is a test-side stand-in for the Heartbeat frame, which has no
// message type of its own.
type heartbeat struct {
	point int
	epoch int64
}

// frameOf encodes one message as the frame a connection carries.
func frameOf(msg any) []byte {
	switch m := msg.(type) {
	case Hello:
		return appendHello(nil, m)
	case Welcome:
		return appendWelcome(nil, m)
	case Upload:
		return appendUpload(nil, m)
	case Push:
		return appendPush(nil, m)
	case heartbeat:
		return appendHeartbeat(nil, m.point, m.epoch)
	}
	panic("frameOf: not a message")
}

// framesOf concatenates messages into one stream.
func framesOf(msgs ...any) []byte {
	var out []byte
	for _, m := range msgs {
		out = append(out, frameOf(m)...)
	}
	return out
}

// parseFrame reads a stream holding exactly one frame back into its
// message.
func parseFrame(t *testing.T, b []byte) any {
	t.Helper()
	r := bytes.NewReader(b)
	kind, body, err := readFrame(r, frameHello, frameWelcome, frameUpload, framePush, frameHeartbeat)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the frame", r.Len())
	}
	var msg any
	switch kind {
	case frameHello:
		msg, err = parseHello(body)
	case frameWelcome:
		msg, err = parseWelcome(body)
	case frameUpload:
		msg, err = parseUpload(body)
	case framePush:
		msg, err = parsePush(body)
	case frameHeartbeat:
		var hb heartbeat
		hb.point, hb.epoch, err = parseHeartbeat(body)
		msg = hb
	}
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// goldenMessages fixes one representative value per wire message. The
// sketch payloads are real encodings so the goldens also pin the sketch
// binary format that rides inside Upload and Push.
func goldenMessages(t *testing.T) map[string]any {
	t.Helper()
	return map[string]any{
		"hello":   Hello{Point: 3, Kind: KindSpread, W: 32, StateEpoch: 15},
		"welcome": Welcome{WindowN: 5, Points: 4, ResumeEpoch: 17, PointEpoch: 15},
		"upload_packed": Upload{
			Point: 3, Epoch: 16, Sketch: fuzzSizeSketchBytes(t),
			AggApplied: true, EnhApplied: false, Rebase: true,
		},
		"push_packed": Push{
			ForEpoch: 17, Aggregate: fuzzSpreadSketchBytes(t),
			CovMerged: 9, CovExpected: 12, IntoCurrent: true,
		},
		// The liveness probe a point sends between epochs (PROTOCOL.md
		// "Heartbeat"): a frame of its own kind, id and epoch only.
		"heartbeat": heartbeat{point: 3, epoch: 16},
	}
}

// checkGoldenFrames compares each message's frame with its golden file
// (rewriting the files under -update) and reads every golden back into the
// message it pins.
func checkGoldenFrames(t *testing.T, msgs map[string]any) {
	for name, msg := range msgs {
		got := frameOf(msg)
		path := filepath.Join("testdata", "golden", name+".bin")
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire format changed (%d bytes, golden %d); if that is "+
				"intended, regenerate with -update.", name, len(got), len(want))
		}
		if back := parseFrame(t, want); !bytes.Equal(frameOf(back), want) {
			t.Errorf("%s: golden decodes to %+v, which re-encodes differently", name, back)
		}
	}
}

func TestGoldenWireFormat(t *testing.T) {
	checkGoldenFrames(t, goldenMessages(t))
}

// TestGoldenDecodable proves each golden frame decodes into the expected
// field values, and that the payloads inside decode as sketches.
func TestGoldenDecodable(t *testing.T) {
	want := goldenMessages(t)
	read := func(name string) any {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		return parseFrame(t, b)
	}
	if h := read("hello"); h != want["hello"] {
		t.Errorf("hello decoded to %+v", h)
	}
	if w := read("welcome"); w != want["welcome"] {
		t.Errorf("welcome decoded to %+v", w)
	}
	u := read("upload_packed").(Upload)
	wu := want["upload_packed"].(Upload)
	if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) ||
		u.AggApplied != wu.AggApplied || u.EnhApplied != wu.EnhApplied || u.Rebase != wu.Rebase {
		t.Errorf("upload decoded to %+v", u)
	}
	p := read("push_packed").(Push)
	wp := want["push_packed"].(Push)
	if p.ForEpoch != wp.ForEpoch || !bytes.Equal(p.Aggregate, wp.Aggregate) ||
		!bytes.Equal(p.Enhancement, wp.Enhancement) ||
		p.CovMerged != wp.CovMerged || p.CovExpected != wp.CovExpected ||
		p.IntoCurrent != wp.IntoCurrent {
		t.Errorf("push decoded to %+v", p)
	}
	if _, err := decodeCountMin(u.Sketch); err != nil {
		t.Errorf("packed upload payload does not decode: %v", err)
	}
	if _, err := decodeRskt(p.Aggregate); err != nil {
		t.Errorf("packed push payload does not decode: %v", err)
	}
	if hb := read("heartbeat"); hb != want["heartbeat"] {
		t.Errorf("heartbeat decoded to %+v", hb)
	}
}
