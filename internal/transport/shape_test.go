package transport

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// hostilePayload is a short, well-formed sketch encoding of a shape no
// node below declares, with every register zero: an rSkt2 sketch of
// 2^14 x 2^14 registers per row (27 bytes) or a vHLL sketch of 2^28
// registers (22 bytes). Decoded into a zero sketch, which accepts any
// shape, the rSkt2 one allocates 576 MB.
func hostilePayload(backend string) []byte {
	const n = 1 << 28
	// Sparse mode, one zero run over the whole presence bitmap, no values.
	zeroArray := binary.AppendUvarint([]byte{1}, uint64(n/64)<<1)
	var b []byte
	switch backend {
	case SketchVhll:
		b = binary.LittleEndian.AppendUint32([]byte{0xB4}, n)
		b = binary.LittleEndian.AppendUint32(b, 128)
		b = binary.LittleEndian.AppendUint64(b, 11)
		return append(b, zeroArray...)
	default:
		b = binary.LittleEndian.AppendUint32([]byte{0xA8}, 1<<14)
		b = binary.LittleEndian.AppendUint32(b, 1<<14)
		b = binary.LittleEndian.AppendUint64(b, 11)
		return append(append(b, zeroArray...), zeroArray...)
	}
}

// TestForeignShapePayloadRejectedBeforeAllocating sends a payload naming
// a huge sketch to every decode site a peer reaches — a center's and a
// relay's upload receive, a relay's and a point's push apply — and
// requires an error before the payload's dimensions are allocated: each
// site decodes into a sketch of the shape the sender declared.
func TestForeignShapePayloadRejectedBeforeAllocating(t *testing.T) {
	for _, backend := range []string{SketchRskt, SketchVhll} {
		payload := hostilePayload(backend)
		ctr, err := newCenterEngine(CenterConfig{Kind: KindSpread, Sketch: backend,
			WindowN: 5, M: 4, Seed: 11, Widths: map[int]int{0: 32}})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := newRelayEngine(RelayConfig{Kind: KindSpread, Sketch: backend,
			WindowN: 5, M: 4, Seed: 11, Widths: map[int]int{0: 32}})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := newPointEngine(PointConfig{Point: 0, Kind: KindSpread, Sketch: backend,
			W: 32, M: 4, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		up := Upload{Point: 0, Epoch: 1, Sketch: payload}
		for _, site := range []struct {
			name string
			call func() error
		}{
			{"center upload", func() error { _, err := ctr.receive(up); return err }},
			{"relay upload", func() error { return rel.receiveChild(up) }},
			{"relay push", func() error { _, err := rel.reencoder(payload)(16); return err }},
			{"point push", func() error { return pt.applyAggregate(1, payload, 1) }},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := site.call()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s %s: accepted a %d-byte payload of a foreign shape", backend, site.name, len(payload))
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
				t.Errorf("%s %s: rejecting a %d-byte payload allocated %d MB", backend, site.name, len(payload), grew>>20)
			}
		}
	}
}
