package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleSections() []Section {
	return []Section{
		{Name: "state", Data: []byte("the quick brown fox")},
		{Name: "meta", Data: []byte{0x01, 0x00, 0xFF}},
		{Name: "uploads", Data: nil},
	}
}

func sectionsEqual(a, b []Section) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleSections()
	if err := Encode(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sectionsEqual(got, want) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, want)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSections()); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Flipping any single byte must fail a CRC (or the magic/version/length
	// checks) — never decode silently to different content, never panic.
	for i := range clean {
		corrupt := append([]byte(nil), clean...)
		corrupt[i] ^= 0xFF
		got, err := Decode(bytes.NewReader(corrupt))
		if err == nil && sectionsEqual(got, sampleSections()) {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	// Every truncation must error, not hang or panic.
	for i := 0; i < len(clean); i++ {
		if _, err := Decode(bytes.NewReader(clean[:i])); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
}

func TestStoreSaveLoadGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "center")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		sec := []Section{{Name: "state", Data: []byte{byte(i)}}}
		if err := s.Save(sec); err != nil {
			t.Fatal(err)
		}
		got, gen, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i) || !sectionsEqual(got, sec) {
			t.Fatalf("after save %d: loaded gen %d sections %+v", i, gen, got)
		}
	}
	// Retention: only the newest two generations remain on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("retained files %v, want exactly 2", names)
	}
	for _, n := range names {
		if !strings.HasSuffix(n, ".ckpt") {
			t.Fatalf("unexpected file %q (temp leak?)", n)
		}
	}
}

func TestStoreResumesGenerationsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, "pt")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save([]Section{{Name: "a", Data: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Save([]Section{{Name: "a", Data: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	// A restarted process opens the same directory and must continue the
	// numbering, not restart at 1 (which would shadow older generations).
	s2, err := Open(dir, "pt")
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.LatestGen(); got != 2 {
		t.Fatalf("LatestGen after reopen = %d, want 2", got)
	}
	if err := s2.Save([]Section{{Name: "a", Data: []byte("3")}}); err != nil {
		t.Fatal(err)
	}
	got, gen, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || string(got[0].Data) != "3" {
		t.Fatalf("loaded gen %d data %q", gen, got[0].Data)
	}
}

func TestStoreCrashMidSaveKeepsPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "center")
	if err != nil {
		t.Fatal(err)
	}
	good := []Section{{Name: "state", Data: bytes.Repeat([]byte("ok"), 100)}}
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	// Crash the next save at every byte offset of its encoding: whatever
	// survives, Load must still return generation 1 intact.
	var full bytes.Buffer
	next := []Section{{Name: "state", Data: bytes.Repeat([]byte("new"), 100)}}
	if err := Encode(&full, next); err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit < full.Len(); limit += 37 {
		s.WrapWriter = func(ws WriteSyncer) WriteSyncer {
			return &CrashWriter{W: ws, Limit: limit}
		}
		if err := s.Save(next); !errors.Is(err, ErrCrashed) {
			t.Fatalf("limit %d: Save error = %v, want ErrCrashed", limit, err)
		}
		got, gen, err := s.Load()
		if err != nil {
			t.Fatalf("limit %d: Load after crash: %v", limit, err)
		}
		if gen != 1 || !sectionsEqual(got, good) {
			t.Fatalf("limit %d: loaded gen %d, want intact gen 1", limit, gen)
		}
	}
	// No temp files may survive the crashes.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files leaked: %v", matches)
	}
	// The store recovers: a clean save after the crashes succeeds.
	s.WrapWriter = nil
	if err := s.Save(next); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !sectionsEqual(got, next) {
		t.Fatal("post-crash save did not become the newest generation")
	}
}

func TestStoreFallsBackToOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "center")
	if err != nil {
		t.Fatal(err)
	}
	gen1 := []Section{{Name: "state", Data: []byte("one")}}
	gen2 := []Section{{Name: "state", Data: []byte("two")}}
	if err := s.Save(gen1); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(gen2); err != nil {
		t.Fatal(err)
	}
	// Tear the newest generation the way a crash-after-rename does: the
	// file exists under its final name but its tail was never flushed.
	path := s.GenPath(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, gen, err := s.Load()
	if err != nil {
		t.Fatalf("Load with torn newest generation: %v", err)
	}
	if gen != 1 || !sectionsEqual(got, gen1) {
		t.Fatalf("loaded gen %d %+v, want fallback to gen 1", gen, got)
	}
}

func TestStoreLoadEmpty(t *testing.T) {
	s, err := Open(t.TempDir(), "center")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load on empty store = %v, want ErrNoCheckpoint", err)
	}
}
