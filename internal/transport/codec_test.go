package transport

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
)

// The payload codec is negotiated per connection, so a cluster may mix
// binaries: an old point on a new center (or the reverse) must settle on
// legacy and produce exactly the answers an all-new cluster does — the
// codecs are lossless re-encodings of the same registers, never a change
// in what is measured.

// runCodecCluster drives a two-point cluster for three epochs and returns
// each point's query answers for a few flows plus the negotiated codecs.
func runCodecCluster(t *testing.T, kind Kind, pointLegacy, centerLegacy bool) (answers []float64, pointCodecs []int) {
	t.Helper()
	cfg := CenterConfig{
		Addr:             "127.0.0.1:0",
		Kind:             kind,
		WindowN:          5,
		Enhance:          true,
		Seed:             11,
		Logf:             quietLogf,
		forceLegacyCodec: centerLegacy,
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
			forceLegacyCodec: pointLegacy,
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

	for _, pc := range pts {
		pointCodecs = append(pointCodecs, int(pc.codec.Load()))
		for f := uint64(0); f < 16; f += 5 {
			v, err := func() (float64, error) {
				if kind == KindSpread {
					return pc.QuerySpread(f)
				}
				n, err := pc.QuerySize(f)
				return float64(n), err
			}()
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, v)
		}
	}
	return answers, pointCodecs
}

// TestCodecNegotiationMixedVersions runs every pairing of packed-capable
// and legacy-pinned peers for both designs: the handshake must settle on
// the weaker side's codec, and the answers must be bit-identical across
// all four pairings — the codec changes bytes on the wire, never
// estimates.
func TestCodecNegotiationMixedVersions(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			var ref []float64
			for _, tc := range []struct {
				name                      string
				pointLegacy, centerLegacy bool
				want                      int
			}{
				{"packed_packed", false, false, CodecPacked},
				{"legacy_point", true, false, CodecLegacy},
				{"legacy_center", false, true, CodecLegacy},
				{"legacy_legacy", true, true, CodecLegacy},
			} {
				answers, codecs := runCodecCluster(t, kind, tc.pointLegacy, tc.centerLegacy)
				for _, c := range codecs {
					if c != tc.want {
						t.Errorf("%s: negotiated codec %d, want %d", tc.name, c, tc.want)
					}
				}
				if ref == nil {
					ref = answers
					continue
				}
				for i := range answers {
					if answers[i] != ref[i] {
						t.Errorf("%s: answer %d is %v, packed cluster said %v",
							tc.name, i, answers[i], ref[i])
					}
				}
			}
		})
	}
}

// TestPackedUploadBytesReduction pins the tentpole's wire win: a packed
// epoch upload must be at least 30% smaller than the legacy encoding of
// the same sketch at a realistic per-epoch density.
func TestPackedUploadBytesReduction(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			size := func(compact bool) int {
				cfg := PointConfig{Point: 0, Kind: kind, Seed: 7}
				switch kind {
				case KindSpread:
					cfg.W, cfg.M = 1638, 128
				case KindSize:
					cfg.W, cfg.D = 16384, 4
				}
				eng, err := newPointEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < 10000; i++ {
					eng.record(i%1000, i)
				}
				_, payload, _, err := eng.endEpoch(false, compact)
				if err != nil {
					t.Fatal(err)
				}
				return len(payload)
			}
			legacy, packed := size(false), size(true)
			if packed > legacy*7/10 {
				t.Errorf("packed upload is %d bytes vs %d legacy (%.0f%% of legacy), want ≤70%%",
					packed, legacy, 100*float64(packed)/float64(legacy))
			}
			t.Logf("%s: upload bytes legacy=%d packed=%d (%.1f%% reduction)",
				kind, legacy, packed, 100*(1-float64(packed)/float64(legacy)))
		})
	}
}

// TestHostileWelcomeCodecClamped proves a point never adopts a codec it
// did not offer, whatever the center claims.
func TestHostileWelcomeCodecClamped(t *testing.T) {
	for _, peer := range []int{-3, CodecPacked + 5} {
		got := negotiateCodec(peer, CodecPacked)
		if got < CodecLegacy || got > CodecPacked {
			t.Errorf("negotiateCodec(%d, packed) = %d, outside [legacy, packed]", peer, got)
		}
	}
	if got := negotiateCodec(CodecPacked, CodecLegacy); got != CodecLegacy {
		t.Errorf("legacy side negotiated %d, want legacy", got)
	}
}

// The relay re-encodes each upstream push once per (child width, codec)
// and passes the payload through untouched when neither changes. The
// pass-through must be byte-identical to decoding, compressing to the
// same width and re-marshaling under the same codec — the per-child path
// every other child still takes.
func TestRelayPassThroughMatchesReencode(t *testing.T) {
	const relayW = 64
	for _, kind := range []Kind{KindSpread, KindSize} {
		// A relay-width push as a center builds it: a wider join, compressed.
		var payload func(compact bool) []byte
		switch kind {
		case KindSpread:
			wide := rskt.New(rskt.Params{W: 4 * relayW, M: 8, Seed: 3})
			for i := uint64(0); i < 2000; i++ {
				wide.Record(i%37, i)
			}
			sk, err := wide.CompressTo(relayW)
			if err != nil {
				t.Fatal(err)
			}
			payload = func(compact bool) []byte { return mustMarshal(t, sk, compact) }
		case KindSize:
			wide := countmin.New(countmin.Params{D: 2, W: 4 * relayW, Seed: 3})
			for i := uint64(0); i < 2000; i++ {
				wide.Record(i%37, 0)
			}
			sk, err := wide.CompressTo(relayW)
			if err != nil {
				t.Fatal(err)
			}
			payload = func(compact bool) []byte { return mustMarshal(t, sk, compact) }
		}
		eng, err := newRelayEngine(RelayConfig{Kind: kind, WindowN: 5, M: 8, D: 2, Seed: 3,
			Widths: map[int]int{0: relayW / 4, 1: relayW}})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []int{CodecLegacy, CodecPacked} {
			data := payload(src == CodecPacked)
			known, unknown := eng.reencoder(data, src), eng.reencoder(data, -1)
			for _, childW := range []int{relayW / 4, relayW} {
				for _, codec := range []int{CodecLegacy, CodecPacked} {
					got, err := known(childW, codec)
					if err != nil {
						t.Fatal(err)
					}
					want, err := unknown(childW, codec)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: source codec %d, child width %d codec %d: pass-through differs from re-encoding", kind, src, childW, codec)
					}
				}
			}
		}
	}
}

func mustMarshal[S core.Sketch[S]](t *testing.T, sk S, compact bool) []byte {
	t.Helper()
	b, err := marshalSketch(sk, compact)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
