package transport

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/faultnet"
	"repro/internal/rskt"
)

// The frame read paths are the center's and point's attack surface: a
// malformed Hello, Upload, Welcome or Push (truncated stream, hostile
// sketch header, wrong kinds, a declared length past the kind's cap) must
// produce an error and a dropped connection, never a panic, a hang or an
// allocation sized by the declaration. Seeds live both in f.Add calls and
// as a committed corpus under testdata/fuzz (regenerate with -gen-corpus).

var genCorpus = flag.Bool("gen-corpus", false, "rewrite the committed fuzz seed corpus in testdata/fuzz")

// frameHeader is the 5-byte start of a frame declaring n bytes of the
// given kind, with none of them following: the oversize-frame seeds.
func frameHeader(kind byte, n uint32) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, n), kind)
}

// fuzzSpreadSketchBytes / fuzzSizeSketchBytes encode small real sketches,
// the payloads every peer sends; the packed wire goldens pin them.
func fuzzSpreadSketchBytes(t interface{ Fatal(args ...any) }) []byte {
	sk := rskt.New(rskt.Params{W: 16, M: 4, Seed: 5})
	for e := 0; e < 30; e++ {
		sk.Record(7, uint64(e))
	}
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fuzzSizeSketchBytes(t interface{ Fatal(args ...any) }) []byte {
	sk := countmin.New(countmin.Params{D: 2, W: 16, Seed: 5})
	for i := 0; i < 30; i++ {
		sk.Record(7, 0)
	}
	b, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fuzzCenterSeeds are the committed protocol-shaped inputs for
// FuzzCenterConn: well-formed handshakes and uploads plus their truncated
// and corrupted variants.
func fuzzCenterSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	helloOK := framesOf(Hello{Point: 0, Kind: KindSize, W: 16})
	upload := framesOf(Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: fuzzSizeSketchBytes(t), AggApplied: false})
	badSketch := framesOf(Hello{Point: 0, Kind: KindSize, W: 16},
		Upload{Point: 0, Epoch: 1, Sketch: []byte{0xC3, 0xFF, 0xFF, 0xFF, 0xFF}})
	wrongKind := framesOf(Hello{Point: 0, Kind: "bogus", W: 16})
	corrupt := append([]byte(nil), helloOK...)
	if len(corrupt) > 4 {
		corrupt[len(corrupt)/2] ^= 0xFF
	}
	return [][]byte{
		{},
		helloOK,
		helloOK[:len(helloOK)/2],
		upload,
		badSketch,
		wrongKind,
		corrupt,
		bytes.Repeat([]byte{0xFF}, 64),
		frameHeader(frameHello, 1<<30),
		append(bytes.Clone(helloOK), frameHeader(frameUpload, uploadHeader+maxSketchBytes+1)...),
	}
}

// fuzzPointSeeds are the committed center→point stream inputs for
// FuzzPointConn: a Welcome followed by pushes, plus hostile variants.
func fuzzPointSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	welcome := Welcome{WindowN: 5, Points: 2, ResumeEpoch: 1}
	pushOK := framesOf(welcome,
		Push{ForEpoch: 1, Aggregate: fuzzSpreadSketchBytes(t), CovMerged: 3, CovExpected: 6})
	badAgg := framesOf(welcome, Push{ForEpoch: 1, Aggregate: []byte{0xA7, 0x00}})
	resync := framesOf(Welcome{WindowN: 5, Points: 2, ResumeEpoch: 9, PointEpoch: 3})
	hostile := framesOf(Welcome{WindowN: -3, Points: -1, ResumeEpoch: -7, PointEpoch: 1 << 50})
	return [][]byte{
		{},
		framesOf(welcome),
		pushOK,
		pushOK[:len(pushOK)-3],
		badAgg,
		resync,
		hostile,
		bytes.Repeat([]byte{0xA7}, 48),
		append(framesOf(welcome), frameHeader(framePush, pushHeader+maxSketchBytes+1)...),
	}
}

// fuzzPushSeeds are Push frames for FuzzPushApply.
func fuzzPushSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	return [][]byte{
		framesOf(Push{ForEpoch: 1, Aggregate: fuzzSpreadSketchBytes(t), CovMerged: 3, CovExpected: 6}),
		framesOf(Push{ForEpoch: 1, Aggregate: fuzzSizeSketchBytes(t), Enhancement: fuzzSizeSketchBytes(t)}),
		framesOf(Push{ForEpoch: -5, Aggregate: []byte{0xA7}, Enhancement: []byte{0xC3}}),
		framesOf(Push{}),
		bytes.Repeat([]byte{0x13}, 32),
		frameHeader(framePush, pushHeader+maxSketchBytes+1),
	}
}

// FuzzCenterConn feeds arbitrary bytes to a live center as a point
// connection's stream. Whatever the bytes decode to, the center must stay
// up and keep accepting well-formed handshakes.
func FuzzCenterConn(f *testing.F) {
	fnet := faultnet.New(1)
	srv, err := ServeCenter(CenterConfig{
		Listener: fnet.Listen(), Kind: KindSize, WindowN: 3,
		Widths: map[int]int{0: 16, 1: 16}, D: 2, Seed: 1, Logf: quietLogf,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	for _, s := range fuzzCenterSeeds(f) {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := fnet.Dial("")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.Close()

		// Liveness probe: the center must still answer a clean handshake.
		probe, err := fnet.Dial("")
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		probeHandshake(t, probe, data)
	})
}

// FuzzPointConn feeds arbitrary bytes to a live point as the center's side
// of the stream (Welcome, then pushes). The point must error out or apply
// cleanly — never panic — and its sketch must stay usable.
func FuzzPointConn(f *testing.F) {
	for _, s := range fuzzPointSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fnet := faultnet.New(1)
		lis := fnet.Listen()
		go func() {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			// Don't bother reading the Hello: write the fuzzed stream in
			// its place and hang up.
			conn.Write(data)
			conn.Close()
		}()
		pc, err := DialPoint(PointConfig{
			Addr: "faultnet", Dial: fnet.Dial, Point: 0, Kind: KindSpread,
			W: 16, M: 4, Seed: 5,
		})
		if err != nil {
			return // welcome rejected: fine
		}
		pc.Record(7, 1)
		_ = pc.EndEpoch() // may fail on the dead conn: fine
		if _, err := pc.QuerySpread(7); err != nil {
			t.Fatalf("local query must survive any center stream: %v", err)
		}
		pc.Close()
	})
}

// FuzzPushApply reads a Push frame from arbitrary bytes and applies it to
// both point designs, mirroring PointClient.apply without the socket
// overhead.
func FuzzPushApply(f *testing.F) {
	for _, s := range fuzzPushSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		push, err := readMessage(bytes.NewReader(data), framePush, parsePush)
		if err != nil {
			return
		}
		sp, err := core.NewSpreadPoint(0, rskt.Params{W: 16, M: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(push.Aggregate) > 0 {
			var sk rskt.Sketch
			if err := sk.UnmarshalBinary(push.Aggregate); err == nil {
				_ = sp.ApplyAggregateCovAt(push.ForEpoch, &sk, push.CovMerged)
			}
		}
		if len(push.Enhancement) > 0 {
			var sk rskt.Sketch
			if err := sk.UnmarshalBinary(push.Enhancement); err == nil {
				_ = sp.ApplyEnhancementAt(push.ForEpoch, &sk)
			}
		}
		sz, err := core.NewSizePoint(0, countmin.Params{D: 2, W: 16, Seed: 5}, core.SizeModeCumulative)
		if err != nil {
			t.Fatal(err)
		}
		if len(push.Aggregate) > 0 {
			var sk countmin.Sketch
			if err := sk.UnmarshalBinary(push.Aggregate); err == nil {
				_ = sz.ApplyAggregateCovAt(push.ForEpoch, &sk, push.CovMerged)
			}
		}
		// The sketches must stay queryable whatever was (not) applied.
		_, _ = sp.Query(7), sz.Query(7)
	})
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus when run with
// -gen-corpus. The files use the `go test fuzz v1` format the fuzzer reads
// from testdata/fuzz/<Target>, so `make fuzz-short` starts from
// protocol-shaped inputs instead of rediscovering the framing.
func TestGenerateFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("run with -gen-corpus to rewrite testdata/fuzz")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzCenterConn", fuzzCenterSeeds(t))
	write("FuzzPointConn", fuzzPointSeeds(t))
	write("FuzzPushApply", fuzzPushSeeds(t))
	write("FuzzRelayConn", fuzzRelaySeeds(t))
	write("FuzzCheckpointSection", fuzzSectionSeeds(t))
}

// probeHandshake runs a clean child handshake on conn and checks the
// node still welcomes it with the cluster's shape (3-epoch window, two
// leaves) after the fuzzed stream data.
func probeHandshake(t *testing.T, conn net.Conn, data []byte) {
	t.Helper()
	if _, err := conn.Write(frameOf(Hello{Point: 1, Kind: KindSize, W: 16})); err != nil {
		t.Fatalf("probe hello: %v", err)
	}
	w, err := readMessage(conn, frameWelcome, parseWelcome)
	if err != nil {
		t.Fatalf("node stopped welcoming after %q: %v", data, err)
	}
	if w.WindowN != 3 || w.Points != 2 {
		t.Fatalf("welcome corrupted: %+v", w)
	}
}
