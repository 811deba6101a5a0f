package countmin

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalBinary checks the decoder never panics, that its verdict
// and counters equal the reference decoder's on every input, and that
// accepted inputs round-trip byte-identically through MarshalBinaryCompact.
func FuzzUnmarshalBinary(f *testing.F) {
	s := New(Params{D: 2, W: 4, Seed: 9})
	s.Add(3, 7)
	good, err := s.MarshalBinaryCompact()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append([]byte{0xC3}, good[1:]...)) // the retired fixed encoding's magic
	f.Add([]byte{})
	f.Add([]byte{wireMagic, 0, 0, 0})
	f.Add(good[:len(good)-1])
	f.Add(bytes.Repeat([]byte{1}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		var sk, ref Sketch
		err := sk.UnmarshalBinary(data)
		if refErr := refUnmarshal(&ref, data); (err == nil) != (refErr == nil) {
			t.Fatalf("err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sk.Equal(&ref) {
			t.Fatal("decode differs from the reference")
		}
		out, err := sk.MarshalBinaryCompact()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted non-canonical encoding")
		}
		_ = sk.Estimate(1)
	})
}
