package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
)

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
	checkPassThrough(t, KindSpread, relayW, spread, decodeRskt)
	checkPassThrough(t, KindSize, relayW, size, decodeCountMin)
}

func checkPassThrough[S core.Sketch[S]](t *testing.T, kind Kind, relayW int, wide S,
	dec func([]byte) (S, error)) {
	t.Helper()
	marshal := func(sk S) []byte {
		b, err := sk.MarshalBinaryCompact()
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

// decodeRskt / decodeCountMin decode a payload into the zero sketch, which
// accepts any dimensions: for tests that inspect a payload without a
// node's declared shape at hand.
func decodeRskt(data []byte) (*rskt.Sketch, error) {
	var sk rskt.Sketch
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &sk, nil
}

func decodeCountMin(data []byte) (*countmin.Sketch, error) {
	var sk countmin.Sketch
	if err := sk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return &sk, nil
}
