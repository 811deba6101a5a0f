package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
)

// The durable checkpoint layout is a compatibility surface just like the
// wire format: a point (or center) restarted with a new binary must be
// able to read the checkpoint the old binary wrote. These goldens pin the
// exact bytes of every checkpoint section — the TQST2 state snapshot, the
// fixed-width meta section, the uploads retransmit buffer, and the
// center's gob blob — for a deterministic protocol run. They share the
// -update flag with the wire-format goldens; a diff is a recovery break.
// The frozen _v1 variants hold what pre-codec binaries wrote (TQST1
// state, fixed sketch encodings); TestLegacyCheckpointRestores proves
// they keep restoring and they are never regenerated.

// goldenPointSections runs a deterministic two-point cluster over real TCP
// for three epochs (uploads, aggregate+enhancement pushes) and returns
// point 0's checkpoint sections.
func goldenPointSections(t *testing.T, kind Kind) []ckptSection {
	t.Helper()
	cfg := CenterConfig{
		Addr:    "127.0.0.1:0",
		Kind:    kind,
		WindowN: 5,
		Enhance: true,
		Seed:    11,
		Logf:    quietLogf,
	}
	switch kind {
	case KindSpread:
		cfg.Widths = map[int]int{0: 32, 1: 64}
		cfg.M = 4
	case KindSize:
		cfg.Widths = map[int]int{0: 64, 1: 128}
		cfg.D = 2
	}
	srv, err := ServeCenter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pts := make([]*PointClient, 2)
	for id := range pts {
		pc, err := DialPoint(PointConfig{
			Addr: srv.Addr().String(), Point: id, Kind: kind,
			W: cfg.Widths[id], M: cfg.M, D: cfg.D, Seed: cfg.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		pts[id] = pc
	}

	for k := int64(1); k <= 3; k++ {
		for id, pc := range pts {
			for f := uint64(0); f < 16; f++ {
				pc.Record(f, uint64(id)<<16|uint64(k)<<8|f)
			}
		}
		for _, pc := range pts {
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

	c := pts[0]
	c.mu.Lock()
	sections, err := c.checkpointSectionsLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]ckptSection, 0, len(sections))
	for _, s := range sections {
		out = append(out, ckptSection{name: s.Name, data: s.Data})
	}
	return out
}

// ckptSection is a name/bytes pair, decoupled from the store's section type so
// the golden framing below cannot drift with it.
type ckptSection struct {
	name string
	data []byte
}

// frameSections flattens sections into one comparable byte stream:
// name, NUL, u32-LE length, payload.
func frameSections(secs []ckptSection) []byte {
	var buf bytes.Buffer
	for _, s := range secs {
		buf.WriteString(s.name)
		buf.WriteByte(0)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s.data)))
		buf.Write(n[:])
		buf.Write(s.data)
	}
	return buf.Bytes()
}

// unframeSections inverts frameSections, recovering the durable sections a
// golden checkpoint file holds.
func unframeSections(t *testing.T, data []byte) []durable.Section {
	t.Helper()
	var secs []durable.Section
	for len(data) > 0 {
		nul := bytes.IndexByte(data, 0)
		if nul < 0 || len(data) < nul+5 {
			t.Fatal("malformed golden checkpoint framing")
		}
		name := string(data[:nul])
		n := binary.LittleEndian.Uint32(data[nul+1 : nul+5])
		data = data[nul+5:]
		if uint32(len(data)) < n {
			t.Fatal("truncated golden checkpoint section")
		}
		secs = append(secs, durable.Section{Name: name, Data: data[:n]})
		data = data[n:]
	}
	return secs
}

func checkGoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".bin")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: missing golden (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: checkpoint layout changed (%d bytes, golden %d).\n"+
			"This breaks crash recovery across versions; if that is intended, "+
			"regenerate with -update.", name, len(got), len(want))
	}
}

// TestGoldenPointCheckpoint pins the full point checkpoint: TQST1 state,
// meta section, and uploads retransmit buffer, for both designs.
func TestGoldenPointCheckpoint(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			secs := goldenPointSections(t, kind)
			checkGoldenBytes(t, "ckpt_point_"+string(kind), frameSections(secs))
		})
	}
}

// TestGoldenCenterCheckpoint pins the gob encoding of the center
// checkpoint blob. Gob map encoding order is nondeterministic for maps
// with 2+ keys, so the pinned cluster is a single point with a single
// received epoch — enough to fix the type descriptors (every field name
// and type of centerCheckpoint and the core state structs) and the
// embedded sketch encodings.
func TestGoldenCenterCheckpoint(t *testing.T) {
	t.Run("spread", func(t *testing.T) {
		params := rskt.Params{W: 32, M: 4, Seed: 11}
		center, err := core.NewSpreadCenter(5, map[int]rskt.Params{0: params})
		if err != nil {
			t.Fatal(err)
		}
		up := rskt.New(params)
		for f := uint64(0); f < 16; f++ {
			up.Record(f, f<<8|f)
		}
		if err := center.Receive(0, 1, up); err != nil {
			t.Fatal(err)
		}
		st, err := center.ExportState(func(sk *rskt.Sketch) ([]byte, error) {
			return sk.MarshalBinaryCompact()
		})
		if err != nil {
			t.Fatal(err)
		}
		ck := centerCheckpoint{
			Kind: KindSpread, WindowN: 5, Widths: map[int]int{0: 32},
			M: 4, Seed: 11, LastPush: 1, Spread: st,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		checkGoldenBytes(t, "ckpt_center_spread", buf.Bytes())
	})
	t.Run("size", func(t *testing.T) {
		params := countmin.Params{D: 2, W: 64, Seed: 11}
		center, err := core.NewSizeCenter(5, map[int]countmin.Params{0: params}, core.SizeModeCumulative)
		if err != nil {
			t.Fatal(err)
		}
		up := countmin.New(params)
		for f := uint64(0); f < 16; f++ {
			up.Add(f, int64(f)+1)
		}
		if err := center.Receive(0, 1, up); err != nil {
			t.Fatal(err)
		}
		st, err := center.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		ck := centerCheckpoint{
			Kind: KindSize, WindowN: 5, Widths: map[int]int{0: 64},
			D: 2, Seed: 11, LastPush: 1, Size: st,
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
			t.Fatal(err)
		}
		checkGoldenBytes(t, "ckpt_center_size", buf.Bytes())
	})
}

// TestLegacyCheckpointRestores proves checkpoints written by pre-codec
// binaries keep restoring: the frozen _v1 goldens hold TQST1 state
// snapshots and fixed-encoding sketch blobs, and both restore paths
// dispatch on the embedded versions rather than assuming the current ones.
func TestLegacyCheckpointRestores(t *testing.T) {
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run("point_"+string(kind), func(t *testing.T) {
			secs := unframeSections(t, read("ckpt_point_"+string(kind)+"_v1"))
			cfg := PointConfig{Point: 0, Kind: kind, Seed: 11}
			switch kind {
			case KindSpread:
				cfg.W, cfg.M = 32, 4
			case KindSize:
				cfg.W, cfg.D = 64, 2
			}
			eng, err := newPointEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := &PointClient{cfg: cfg, eng: eng}
			if err := c.restoreCheckpoint(secs); err != nil {
				t.Fatalf("legacy point checkpoint no longer restores: %v", err)
			}
			// The golden cluster ran three epochs, so the restored point
			// lives in epoch 4 with three buffered uploads.
			if c.Epoch() != 4 {
				t.Errorf("restored epoch %d, want 4", c.Epoch())
			}
			if len(c.up.pending) != 3 {
				t.Errorf("restored %d buffered uploads, want 3", len(c.up.pending))
			}
		})
	}
	t.Run("center_spread", func(t *testing.T) {
		var ck centerCheckpoint
		if err := gob.NewDecoder(bytes.NewReader(read("ckpt_center_spread_v1"))).Decode(&ck); err != nil {
			t.Fatal(err)
		}
		eng, err := newCenterEngine(CenterConfig{
			Kind: KindSpread, WindowN: 5, Widths: map[int]int{0: 32}, M: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.importState(&ck); err != nil {
			t.Fatalf("legacy center checkpoint no longer restores: %v", err)
		}
		if eng.maxEpoch() != 1 {
			t.Errorf("restored max epoch %d, want 1", eng.maxEpoch())
		}
	})
	t.Run("center_size", func(t *testing.T) {
		var ck centerCheckpoint
		if err := gob.NewDecoder(bytes.NewReader(read("ckpt_center_size_v1"))).Decode(&ck); err != nil {
			t.Fatal(err)
		}
		eng, err := newCenterEngine(CenterConfig{
			Kind: KindSize, WindowN: 5, Widths: map[int]int{0: 64}, D: 2, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.importState(&ck); err != nil {
			t.Fatalf("legacy center checkpoint no longer restores: %v", err)
		}
		if eng.maxEpoch() != 1 {
			t.Errorf("restored max epoch %d, want 1", eng.maxEpoch())
		}
	})
}
