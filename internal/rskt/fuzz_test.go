package rskt

import (
	"bytes"
	"testing"
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
