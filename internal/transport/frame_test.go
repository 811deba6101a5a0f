package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
)

// gobFixture reads an input the retired encoding/gob protocol wrote:
// hello.bin is a point's opening stream, center_section.bin and
// relay_section.bin are checkpoint sections.
func gobFixture(t interface{ Fatal(args ...any) }, name string) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "gob", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGobInputsRejected proves nothing gob-era is read: a gob stream from
// a child and gob-era center and relay checkpoints each fail with an error
// naming the format.
func TestGobInputsRejected(t *testing.T) {
	noLeak(t)
	t.Run("stream", func(t *testing.T) {
		logged := make(chan string, 8)
		srv, err := ServeCenter(CenterConfig{
			Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: 5,
			Widths: map[int]int{3: 32}, M: 4, Seed: 1,
			Logf: func(format string, args ...any) {
				select {
				case logged <- fmt.Sprintf(format, args...):
				default:
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(gobFixture(t, "hello.bin")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(conn); err != nil && !isReset(err) {
			t.Fatal(err)
		}
		select {
		case msg := <-logged:
			if !strings.Contains(msg, "encoding/gob") {
				t.Errorf("gob stream dropped with %q, which does not name the format", msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("gob stream not rejected")
		}
	})
	for _, tc := range []struct {
		role  string
		serve func(dir string) error
	}{
		{"center", func(dir string) error {
			srv, err := ServeCenter(CenterConfig{
				Addr: "127.0.0.1:0", Kind: KindSize, WindowN: 5, Widths: map[int]int{0: 64},
				D: 2, Seed: 11, CheckpointDir: dir, Logf: quietLogf,
			})
			if err == nil {
				srv.Close()
			}
			return err
		}},
		{"relay", func(dir string) error {
			rel, err := ServeRelay(RelayConfig{
				Addr: "127.0.0.1:0", UpstreamAddr: "127.0.0.1:1", Relay: 7, Kind: KindSize,
				WindowN: 5, Widths: map[int]int{0: 16}, D: 2, Seed: 5, CheckpointDir: dir, Logf: quietLogf,
			})
			if err == nil {
				rel.Close()
			}
			return err
		}},
	} {
		t.Run(tc.role+" checkpoint", func(t *testing.T) {
			dir := t.TempDir()
			name := tc.role
			if tc.role == "relay" {
				name = "relay-7"
			}
			store, err := durable.Open(dir, name)
			if err != nil {
				t.Fatal(err)
			}
			data := gobFixture(t, tc.role+"_section.bin")
			if err := store.Save([]durable.Section{{Name: tc.role, Data: data}}); err != nil {
				t.Fatal(err)
			}
			err = tc.serve(dir)
			if err == nil || !strings.Contains(err.Error(), "encoding/gob") {
				t.Fatalf("gob-era %s checkpoint: err = %v, want one naming encoding/gob", tc.role, err)
			}
		})
	}
}

// TestOversizeFrameRejectedBeforeAllocating declares frames past their
// kind's cap to a live center — a 1 GiB Hello from a peer that was never
// admitted, then an Upload over maxSketchBytes from an admitted child —
// and streams bytes behind the declaration. Each connection must be
// dropped on the 5-byte frame header, before the node allocates for the
// declared length.
func TestOversizeFrameRejectedBeforeAllocating(t *testing.T) {
	noLeak(t)
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSize, WindowN: 3,
		Widths: map[int]int{0: 16, 1: 16}, D: 2, Seed: 1, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	filler := make([]byte, 1<<20)
	for _, tc := range []struct {
		name     string
		admitted bool
		header   []byte
	}{
		{"unadmitted 1 GiB hello", false, frameHeader(frameHello, 1<<30)},
		{"admitted upload over the cap", true, frameHeader(frameUpload, uploadHeader+maxSketchBytes+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if tc.admitted {
				if _, err := conn.Write(frameOf(Hello{Point: 0, Kind: KindSize, W: 16})); err != nil {
					t.Fatal(err)
				}
				if _, _, err := readFrame(conn, frameWelcome); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := conn.Write(tc.header); err != nil {
				t.Fatal(err)
			}
			// Stream behind the declaration until the center hangs up;
			// writes fail once it has.
			for i := 0; i < 16; i++ {
				if _, err := conn.Write(filler); err != nil {
					break
				}
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, err = io.Copy(io.Discard, conn)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("the frame cost %d KiB of allocation", grew>>10)
			}
			if err != nil && !isReset(err) {
				t.Fatalf("connection not dropped: %v", err)
			}
		})
	}
}

// isReset reports whether err is the peer resetting a connection it
// closed with our bytes unread — the expected end of a dropped stream.
func isReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET)
}

// silentListener accepts connections and never answers; with hello set it
// answers the first connection's Hello with a Welcome and then hangs up.
// It returns the listener's address and a counter of accepted
// connections; everything closes with the test.
func silentListener(t *testing.T, welcomeFirst bool) (string, func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			first := len(conns) == 1
			mu.Unlock()
			if first && welcomeFirst {
				if _, _, err := readFrame(conn, frameHello); err == nil {
					conn.Write(frameOf(Welcome{WindowN: 3, Points: 2, ResumeEpoch: 1}))
				}
				conn.Close()
			}
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
}

// handshakeBound is the DialTimeout the handshake tests configure, and
// handshakeSlack what they allow on top of it.
const handshakeBound, handshakeSlack = 200 * time.Millisecond, 2 * time.Second

// TestDialPointHandshakeBounded: against a parent that accepts and never
// answers, DialPoint fails within its DialTimeout instead of blocking on
// the Welcome forever.
func TestDialPointHandshakeBounded(t *testing.T) {
	noLeak(t)
	addr, _ := silentListener(t, false)
	errc := make(chan error, 1)
	go func() {
		pc, err := DialPoint(PointConfig{
			Addr: addr, Point: 0, Kind: KindSize, W: 16, D: 2, Seed: 1, DialTimeout: handshakeBound,
		})
		if err == nil {
			pc.Close()
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("DialPoint succeeded against a silent parent")
		}
	case <-time.After(handshakeBound + handshakeSlack):
		t.Fatalf("DialPoint still blocked after %v, bound %v", handshakeBound+handshakeSlack, handshakeBound)
	}
}

// TestRelayCloseBoundedWhenParentSilent: a relay whose parent goes silent
// after the first connect redials in the background; Close must return
// within the handshake bound even while a redial waits on a Welcome that
// never comes.
func TestRelayCloseBoundedWhenParentSilent(t *testing.T) {
	noLeak(t)
	addr, accepted := silentListener(t, true)
	rel, err := ServeRelay(RelayConfig{
		Addr: "127.0.0.1:0", UpstreamAddr: addr, Relay: 7, Kind: KindSize, WindowN: 3,
		Widths: map[int]int{0: 16}, D: 2, Seed: 1, DialTimeout: handshakeBound,
		RedialBackoff: 10 * time.Millisecond, RedialBackoffMax: 20 * time.Millisecond, Logf: quietLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a redial to the silent parent", func() bool { return accepted() >= 2 })
	done := make(chan struct{})
	start := time.Now()
	go func() {
		rel.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(handshakeBound + handshakeSlack):
		t.Fatalf("relay Close still blocked after %v", time.Since(start))
	}
}

// sectionSeeds builds real center and relay checkpoint sections: two
// points over two epochs for each center design, and a size relay with a
// pending round, a cached push and a retransmit buffer.
func sectionSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	widths := map[int]int{0: 16, 1: 32}
	spread, err := core.NewSpreadCenter(5, map[int]rskt.Params{0: {W: 16, M: 4, Seed: 5}, 1: {W: 32, M: 4, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	size, err := core.NewSizeCenter(5, map[int]countmin.Params{0: {D: 2, W: 16, Seed: 5}, 1: {D: 2, W: 32, Seed: 5}}, core.SizeModeDelta)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 2; e++ {
		for id, w := range widths {
			rs := rskt.New(rskt.Params{W: w, M: 4, Seed: 5})
			cm := countmin.New(countmin.Params{D: 2, W: w, Seed: 5})
			for f := uint64(0); f < 8; f++ {
				rs.Record(f, uint64(e)<<8|f)
				cm.Add(f, e)
			}
			if err := spread.Receive(id, e, rs); err != nil {
				t.Fatal(err)
			}
			if err := size.Receive(id, e, cm); err != nil {
				t.Fatal(err)
			}
		}
	}
	spreadSt, err := spread.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sizeSt, err := size.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	topo := topology{kind: KindSpread, windowN: 5, m: 4, seed: 5, widths: widths}
	centerSpread := (&centerSection{topo: topo, lastPush: 2, state: spreadSt}).encode()
	topo.kind, topo.m, topo.d, topo.delta = KindSize, 0, 2, true
	centerSize := (&centerSection{topo: topo, lastPush: 2, state: sizeSt}).encode()

	eng, err := newRelayEngine(RelayConfig{Kind: KindSize, WindowN: 5, Widths: map[int]int{0: 16, 1: 16}, D: 2, Seed: 5, Relay: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.receiveChild(Upload{Point: 0, Epoch: 2, Sketch: fuzzSizeSketchBytes(t)}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	relay := (&relaySection{
		topo:     topology{kind: KindSize, windowN: 5, d: 2, seed: 5, node: 7, widths: map[int]int{0: 16, 1: 16}},
		lastPush: 2,
		cache:    []Push{{ForEpoch: 2, Aggregate: fuzzSizeSketchBytes(t), CovMerged: 2, CovExpected: 2}},
		pending:  []pendingUpload{{up: Upload{Point: 7, Epoch: 1, Sketch: fuzzSizeSketchBytes(t)}, sent: true}},
		state:    *st,
	}).encode()
	return [][]byte{centerSpread, centerSize, relay}
}

// fuzzSectionSeeds are FuzzCheckpointSection's committed inputs: the real
// sections, truncated and corrupted variants, and the gob-era sections.
func fuzzSectionSeeds(t interface{ Fatal(args ...any) }) [][]byte {
	seeds := sectionSeeds(t)
	relay := seeds[2]
	corrupt := bytes.Clone(relay)
	corrupt[len(corrupt)/2] ^= 0xFF
	return append(seeds,
		nil,
		relay[:len(relay)-1],
		corrupt,
		append(bytes.Clone(seeds[0]), 0),
		gobFixture(t, "center_section.bin"),
		gobFixture(t, "relay_section.bin"),
	)
}

// FuzzCheckpointSection feeds arbitrary bytes to both node checkpoint
// section decoders. A malformed section must fail without panicking, and
// an accepted one must re-encode to exactly its input: sections have one
// byte form.
func FuzzCheckpointSection(f *testing.F) {
	for _, s := range fuzzSectionSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sec, err := parseCenterSection(data); err == nil {
			if got := sec.encode(); !bytes.Equal(got, data) {
				t.Fatalf("center section re-encodes to %x, input %x", got, data)
			}
		}
		if sec, err := parseRelaySection(data); err == nil {
			if got := sec.encode(); !bytes.Equal(got, data) {
				t.Fatalf("relay section re-encodes to %x, input %x", got, data)
			}
		}
	})
}

// TestSectionsParse checks the seed sections parse, so the fuzz target's
// corpus starts from accepted inputs.
func TestSectionsParse(t *testing.T) {
	seeds := sectionSeeds(t)
	for i, data := range seeds[:2] {
		if _, err := parseCenterSection(data); err != nil {
			t.Errorf("center seed %d: %v", i, err)
		}
	}
	if _, err := parseRelaySection(seeds[2]); err != nil {
		t.Errorf("relay seed: %v", err)
	}
}
