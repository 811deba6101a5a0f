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
	"repro/internal/rskt"
)

// The durable checkpoint layout is a compatibility surface just like the
// wire format: a point (or center) restarted with a new binary must be
// able to read the checkpoint the old binary wrote. These goldens pin the
// exact bytes of every checkpoint section — the TQST2 state snapshot, the
// fixed-width meta section, the uploads retransmit buffer, and the
// center's gob blob — for a deterministic protocol run. They share the
// -update flag with the wire-format goldens; a diff is a recovery break.

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

// TestGoldenPointCheckpoint pins the full point checkpoint: TQST2 state,
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
		st, err := center.ExportState()
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
