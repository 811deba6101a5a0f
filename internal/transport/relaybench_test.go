package transport

import (
	"fmt"
	"testing"

	"repro/internal/countmin"
)

// Fan-in benchmark shape: d CountMin rows of benchFanInW counters per
// leaf (one upload is ~benchFanInW*benchFanInD*4 B decoded), 8 relays in
// tree mode.
const (
	benchFanInW      = 2048
	benchFanInD      = 4
	benchFanInSeed   = 7
	benchFanInRelays = 8
)

// benchLeafUploadBytes builds one leaf point's per-epoch delta payload.
func benchLeafUploadBytes(b *testing.B) []byte {
	b.Helper()
	sk := countmin.New(countmin.Params{D: benchFanInD, W: benchFanInW, Seed: benchFanInSeed})
	for f := uint64(0); f < 512; f++ {
		sk.Add(f, int64(1+f%7))
	}
	data, err := sk.MarshalBinaryCompact()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// benchRelayUploadBytes pre-merges `children` leaf payloads through a
// real relay engine and returns the combined upload the center would see
// from one relay per epoch.
func benchRelayUploadBytes(b *testing.B, leaf []byte, children int) []byte {
	b.Helper()
	widths := make(map[int]int, children)
	for c := 0; c < children; c++ {
		widths[c] = benchFanInW
	}
	eng, err := newRelayEngine(RelayConfig{
		Kind: KindSize, WindowN: 10, Widths: widths,
		D: benchFanInD, Seed: benchFanInSeed, Relay: 1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < children; c++ {
		if err := eng.receiveChild(Upload{Point: c, Epoch: 1, Sketch: leaf}); err != nil {
			b.Fatal(err)
		}
	}
	_, payload, ok, err := eng.nextReady()
	if err != nil || !ok {
		b.Fatalf("combined upload not ready (ok=%v, err=%v)", ok, err)
	}
	return payload
}

// benchCenterEpochs times the center-side ingest cost of one epoch: one
// upload decoded and merged per direct child. Push fan-out is excluded —
// the round's window join, compressions and encodings would swamp the
// ingest signal this benchmark isolates.
func benchCenterEpochs(b *testing.B, children, weight int, payload []byte) {
	widths := make(map[int]int, children)
	weights := make(map[int]int, children)
	for c := 0; c < children; c++ {
		widths[c] = benchFanInW
		weights[c] = weight
	}
	eng, err := newCenterEngine(CenterConfig{
		Kind: KindSize, WindowN: 10, Widths: widths,
		D: benchFanInD, Seed: benchFanInSeed, DeltaUploads: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < children; c++ {
		eng.setWeight(c, weight)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := int64(i + 1)
		for c := 0; c < children; c++ {
			if err := eng.receive(Upload{Point: c, Epoch: e, Sketch: payload}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(children), "uploads/epoch")
	b.ReportMetric(float64(children*len(payload)), "upload-B/epoch")
}

// BenchmarkRelayFanIn measures the measurement center's per-epoch bill —
// the ROADMAP's cap on cluster size — for p leaf points uploading
// (topo=flat) directly versus (topo=tree) through a 2-level tree of 8
// relays that pre-merge p/8 children each, so the center absorbs 8
// combined uploads instead of p. The relays' own merge cost is excluded
// on purpose: it runs distributed on the relay hosts, while ns/op here is
// one epoch of ingest at the center. cmd/benchjson pairs the flat/tree
// rows into its relay_fanin_speedup map (BENCH_PR7.json).
func BenchmarkRelayFanIn(b *testing.B) {
	leaf := benchLeafUploadBytes(b)
	for _, p := range []int{64, 256} {
		combined := benchRelayUploadBytes(b, leaf, p/benchFanInRelays)
		b.Run(fmt.Sprintf("topo=flat/p=%d", p), func(b *testing.B) {
			benchCenterEpochs(b, p, 1, leaf)
		})
		b.Run(fmt.Sprintf("topo=tree/p=%d", p), func(b *testing.B) {
			benchCenterEpochs(b, benchFanInRelays, p/benchFanInRelays, combined)
		})
	}
}
