package rskt

import (
	"bytes"
	"testing"

	"repro/internal/hll"
)

// FuzzUnmarshalBinary checks the decoder never panics and that any input
// it accepts round-trips to identical bytes (a canonical encoding).
func FuzzUnmarshalBinary(f *testing.F) {
	s := New(Params{W: 4, M: 8, Seed: 1})
	for e := 0; e < 50; e++ {
		s.Record(1, uint64(e))
	}
	good, err := s.MarshalBinaryCompact()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append([]byte{0xA7}, good[1:]...)) // the retired fixed encoding's magic
	f.Add([]byte{})
	f.Add([]byte{wireMagic})
	f.Add(good[:len(good)-1])
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sk Sketch
		if err := sk.UnmarshalBinary(data); err != nil {
			return // rejected inputs are fine
		}
		out, err := sk.MarshalBinaryCompact()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, out)
		}
		// And the sketch must be usable.
		_ = sk.Estimate(42)
	})
}

// FuzzEstimateUnion holds EstimateUnion to the per-register reference
// loop on arbitrary registers: the first byte picks M (1..257), the second
// how many others (0..8) and the third the flow; the rest fills the rows
// of the sketch and its others cyclically, each byte masked to a register
// value.
func FuzzEstimateUnion(f *testing.F) {
	f.Add([]byte{127, 0, 1, 5, 31, 0, 7})
	f.Add([]byte{0, 8, 2, 31})
	f.Add([]byte{255, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add(bytes.Repeat([]byte{0x1f}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		p := Params{W: 2, M: 1 + int(data[0]) + int(data[0]>>7), Seed: 9}
		sks := make([]*Sketch, 1+int(data[1])%9)
		fill, n := data[3:], 0
		for j := range sks {
			sks[j] = New(p)
			for u := range sks[j].rows {
				for i := range sks[j].rows[u] {
					if len(fill) > 0 {
						sks[j].rows[u][i] = fill[n%len(fill)] & hll.MaxRegisterValue
						n++
					}
				}
			}
		}
		checkEstimateUnion(t, sks[0], uint64(data[2]), sks[1:])
	})
}
