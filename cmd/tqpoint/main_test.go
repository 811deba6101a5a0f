package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/transport"
)

func TestReplayTraceDrivesEpochs(t *testing.T) {
	const (
		n, w = 5, 32
		seed = 9
	)
	srv, err := transport.ServeCenter(transport.CenterConfig{
		Addr: "127.0.0.1:0", Kind: transport.KindSpread, WindowN: n,
		Widths: map[int]int{0: w}, M: 16, Seed: seed,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pc, err := transport.DialPoint(transport.PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: transport.KindSpread,
		W: w, M: 16, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	// Build a trace file: 3 epochs of traffic at 6s epochs for point 0.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < 100; i++ {
			err := tw.Write(trace.Packet{
				TS:    int64(k)*int64(6*time.Second) + int64(i)*int64(50*time.Millisecond),
				Point: 0,
				Flow:  7,
				Elem:  uint64(k*100 + i),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reports := 0
	if err := replayTrace(pc, path, 0, 6*time.Second, func(uint64) bool { return true }, pc.EndEpoch, func() { reports++ }); err != nil {
		t.Fatal(err)
	}
	// Two boundaries are crossed inside the trace (epochs 1->2 and 2->3),
	// plus the final EndEpoch after EOF.
	if reports != 2 {
		t.Fatalf("reports = %d, want 2", reports)
	}
	if pc.Epoch() != 4 {
		t.Fatalf("point epoch = %d, want 4", pc.Epoch())
	}
}

func TestReplayTraceMissingFile(t *testing.T) {
	srv, err := transport.ServeCenter(transport.CenterConfig{
		Addr: "127.0.0.1:0", Kind: transport.KindSize, WindowN: 5,
		Widths: map[int]int{0: 8}, D: 2, Seed: 1,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc, err := transport.DialPoint(transport.PointConfig{
		Addr: srv.Addr().String(), Point: 0, Kind: transport.KindSize, W: 8, D: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := replayTrace(pc, "/nonexistent/trace.bin", 0, time.Second, func(uint64) bool { return true }, pc.EndEpoch, func() {}); err == nil {
		t.Fatal("expected error for missing trace file")
	}
}
