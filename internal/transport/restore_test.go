package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/countmin"
	"repro/internal/durable"
	"repro/internal/rskt"
)

// freshPoint builds an unconnected point of the golden cluster's shape
// (goldenCluster), the state DialPoint restores a checkpoint into.
func freshPoint(t *testing.T, kind Kind) *PointClient {
	t.Helper()
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
	return &PointClient{cfg: cfg, eng: eng}
}

// TestRestoreCheckpointRejectsMalformedSections feeds restoreCheckpoint a
// real checkpoint with one section damaged at a time. Each must fail with
// an error — no panic, no allocation sized by a hostile count — and leave
// the point exactly as fresh as it was, sketches included.
func TestRestoreCheckpointRejectsMalformedSections(t *testing.T) {
	good, _ := goldenCluster(t, KindSize)
	section := func(name string) []byte {
		for _, s := range good {
			if s.name == name {
				return s.data
			}
		}
		t.Fatalf("golden checkpoint has no %s section", name)
		return nil
	}
	uploads := section("uploads")
	hugeCount := []byte{pointUploadsVersion, 0xFF, 0xFF, 0xFF, 0xFF}
	overCount := bytes.Clone(uploads)
	binary.LittleEndian.PutUint32(overCount[1:5], binary.LittleEndian.Uint32(uploads[1:5])+1)
	wrongVersion := bytes.Clone(section("meta"))
	wrongVersion[0] = pointMetaVersion + 1

	for _, tc := range []struct {
		name    string
		replace map[string][]byte // nil value: drop the section
	}{
		{"missing state", map[string][]byte{"state": nil}},
		{"missing meta", map[string][]byte{"meta": nil}},
		{"missing uploads", map[string][]byte{"uploads": nil}},
		{"empty meta", map[string][]byte{"meta": {}}},
		{"short meta", map[string][]byte{"meta": section("meta")[:len(section("meta"))-1]}},
		{"wrong-version meta", map[string][]byte{"meta": wrongVersion}},
		{"empty uploads", map[string][]byte{"uploads": {}}},
		{"count beyond an empty payload", map[string][]byte{"uploads": hugeCount}},
		{"count beyond the payload", map[string][]byte{"uploads": overCount}},
		{"truncated payload", map[string][]byte{"uploads": uploads[:len(uploads)-1]}},
		{"trailing bytes", map[string][]byte{"uploads": append(bytes.Clone(uploads), 0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var secs []durable.Section
			for _, s := range good {
				data, replaced := tc.replace[s.name]
				if !replaced {
					data = s.data
				} else if data == nil {
					continue
				}
				secs = append(secs, durable.Section{Name: s.name, Data: data})
			}
			c := freshPoint(t, KindSize)
			epoch, answer := c.Epoch(), c.eng.Query(3)
			if err := c.restoreCheckpoint(secs); err == nil {
				t.Fatal("malformed checkpoint restored")
			}
			if c.Epoch() != epoch || c.eng.Query(3) != answer || len(c.up.pending) != 0 {
				t.Fatalf("failed restore changed the point: epoch %d→%d, pending %d",
					epoch, c.Epoch(), len(c.up.pending))
			}
		})
	}

	// Control: the undamaged checkpoint restores (three epochs ran, so the
	// point lives in epoch 4 with three buffered uploads).
	var secs []durable.Section
	for _, s := range good {
		secs = append(secs, durable.Section{Name: s.name, Data: s.data})
	}
	c := freshPoint(t, KindSize)
	if err := c.restoreCheckpoint(secs); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 4 || len(c.up.pending) != 3 {
		t.Fatalf("restored epoch %d with %d buffered uploads, want 4 and 3", c.Epoch(), len(c.up.pending))
	}
}

// TestLegacyInputsRejected runs what the retired fixed encoding wrote —
// one sketch payload per deployed backend, exactly as the old encoders emitted
// them, and a TQST1 point-state header — through today's decoders. Each
// must fail with an error naming the old magic, and leave the target
// untouched.
func TestLegacyInputsRejected(t *testing.T) {
	legacy := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name, magic string
		// reject decodes the legacy input into a populated target and
		// reports whether the target is unchanged.
		reject func() (error, bool)
	}{
		{"countmin", "0xc3", func() (error, bool) {
			sk := countmin.New(countmin.Params{D: 1, W: 4, Seed: 5})
			sk.Add(1, 2)
			before := sk.Clone()
			err := sk.UnmarshalBinary(legacy("c3010000000400000005000000000000000000000000000000000000000000000000000000000000000300000000000000"))
			return err, sk.Equal(before)
		}},
		{"rskt", "0xa7", func() (error, bool) {
			sk := rskt.New(rskt.Params{W: 2, M: 4, Seed: 5})
			sk.Record(1, 2)
			before := sk.Clone()
			err := sk.UnmarshalBinary(legacy("a70200000004000000050000000000000001000000000050c600000000010000000000000030000000"))
			return err, sk.Equal(before)
		}},
		{"TQST1 state", "TQST1", func() (error, bool) {
			// A state file that loads under TQST2, relabeled TQST1: only
			// the header can reject it.
			src := freshPoint(t, KindSpread)
			for e := uint64(0); e < 40; e++ {
				src.eng.Record(7, e)
			}
			state, err := src.eng.saveState()
			if err != nil {
				t.Fatal(err)
			}
			if err := freshPoint(t, KindSpread).eng.loadState(state); err != nil {
				t.Fatalf("control: TQST2 state does not load: %v", err)
			}
			old := bytes.Clone(state)
			copy(old, "TQST1")
			c := freshPoint(t, KindSpread)
			epoch, answer := c.Epoch(), c.eng.Query(7)
			err = c.eng.loadState(old)
			return err, c.Epoch() == epoch && c.eng.Query(7) == answer
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err, unchanged := tc.reject()
			if err == nil {
				t.Fatal("legacy input accepted")
			}
			if !strings.Contains(err.Error(), tc.magic) {
				t.Errorf("error %q does not name the old magic %s", err, tc.magic)
			}
			if !unchanged {
				t.Error("rejected input changed the target")
			}
		})
	}
}
