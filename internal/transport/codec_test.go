package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
)

// TestPackedUploadBytesReduction pins the compact encoding's wire win: an
// epoch upload's compact encoding must be at least 30% smaller than the
// fixed encoding of the same sketch at a realistic per-epoch density.
func TestPackedUploadBytesReduction(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			var fixed, packed []byte
			var err error
			switch kind {
			case KindSpread:
				sk := rskt.New(rskt.Params{W: 1638, M: 128, Seed: 7})
				for i := uint64(0); i < 10000; i++ {
					sk.Record(i%1000, i)
				}
				if fixed, err = sk.MarshalBinary(); err == nil {
					packed, err = sk.MarshalBinaryCompact()
				}
			case KindSize:
				sk := countmin.New(countmin.Params{D: 4, W: 16384, Seed: 7})
				for i := uint64(0); i < 10000; i++ {
					sk.Record(i%1000, i)
				}
				if fixed, err = sk.MarshalBinary(); err == nil {
					packed, err = sk.MarshalBinaryCompact()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(packed) > len(fixed)*7/10 {
				t.Errorf("compact upload is %d bytes vs %d fixed (%.0f%% of fixed), want ≤70%%",
					len(packed), len(fixed), 100*float64(len(packed))/float64(len(fixed)))
			}
			t.Logf("%s: upload bytes fixed=%d compact=%d (%.1f%% reduction)",
				kind, len(fixed), len(packed), 100*(1-float64(len(packed))/float64(len(fixed))))
		})
	}
}

// The relay re-encodes each upstream push once per child width and passes
// the payload through untouched at its own width. The pass-through must be
// byte-identical to decoding, compressing to the same width and
// re-marshaling — the path every narrower child takes.
func TestRelayPassThroughMatchesReencode(t *testing.T) {
	const relayW = 64
	// A relay-width push as a center builds it: a wider join, compressed.
	spread := rskt.New(rskt.Params{W: 4 * relayW, M: 8, Seed: 3})
	size := countmin.New(countmin.Params{D: 2, W: 4 * relayW, Seed: 3})
	for i := uint64(0); i < 2000; i++ {
		spread.Record(i%37, i)
		size.Record(i%37, 0)
	}
	checkPassThrough(t, KindSpread, relayW, spread, decodeRskt, (*rskt.Sketch).MarshalBinaryCompact)
	checkPassThrough(t, KindSize, relayW, size, decodeCountMin, (*countmin.Sketch).MarshalBinaryCompact)
}

func checkPassThrough[S core.Sketch[S]](t *testing.T, kind Kind, relayW int, wide S,
	dec func([]byte) (S, error), enc func(S) ([]byte, error)) {
	t.Helper()
	marshal := func(sk S) []byte {
		b, err := enc(sk)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	compress := func(sk S) S {
		out, err := sk.CompressTo(relayW)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	payload := marshal(compress(wide))
	decoded, err := dec(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(compress(decoded))

	eng, err := newRelayEngine(RelayConfig{Kind: kind, WindowN: 5, M: 8, D: 2, Seed: 3,
		Widths: map[int]int{0: relayW / 4, 1: relayW}})
	if err != nil {
		t.Fatal(err)
	}
	reenc := eng.reencoder(payload)
	got, err := reenc(relayW)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: pass-through at the relay width differs from re-encoding", kind)
	}
	if _, err := reenc(relayW / 4); err != nil {
		t.Fatalf("%s: narrower child: %v", kind, err)
	}
}
