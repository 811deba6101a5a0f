package rskt

import (
	"encoding"
	"testing"
	"testing/quick"
)

var _ encoding.BinaryUnmarshaler = (*Sketch)(nil)

func TestEncodingRoundTrip(t *testing.T) {
	s := New(Params{W: 37, M: 24, Seed: 123}) // odd sizes exercise padding
	for f := uint64(0); f < 30; f++ {
		for e := 0; e < 100; e++ {
			s.Record(f, uint64(e))
		}
	}
	data, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatal("round trip changed sketch state")
	}
}

func TestEncodingEmpty(t *testing.T) {
	s := New(Params{W: 1, M: 1, Seed: 0})
	data, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatal("empty sketch round trip failed")
	}
}

func TestEncodingCompactness(t *testing.T) {
	// A dense payload must use 5-bit packing: ~2*W*M*5/8 bytes, not one
	// byte per register.
	s := New(Params{W: 64, M: 128, Seed: 0})
	for e := uint64(0); e < 200000; e++ {
		s.Record(e%4096, e)
	}
	data, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	regs := 2 * 64 * 128
	packedBytes := regs * 5 / 8
	if len(data) > packedBytes+64 {
		t.Fatalf("encoding %d bytes, want about %d (packed)", len(data), packedBytes)
	}
}

func TestDecodeErrors(t *testing.T) {
	s := New(Params{W: 4, M: 8, Seed: 1})
	data, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var g Sketch
	if err := g.UnmarshalBinary(nil); err == nil {
		t.Fatal("expected error on empty input")
	}
	if err := g.UnmarshalBinary(data[:5]); err == nil {
		t.Fatal("expected error on truncated input")
	}
	bad := append([]byte{}, data...)
	bad[0] = 0xFF
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected magic error")
	}
	if err := g.UnmarshalBinary(append(data, 0)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func TestEncodingQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, nPkts uint8) bool {
		s := New(Params{W: 13, M: 11, Seed: seed})
		for i := 0; i < int(nPkts); i++ {
			s.Record(seed%17, uint64(i))
		}
		data, err := s.MarshalBinaryCompact()
		if err != nil {
			return false
		}
		var got Sketch
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.Equal(s)
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsOtherDimensions: a sketch with dimensions accepts only
// an encoding of those dimensions; the zero Sketch accepts any.
func TestDecodeRejectsOtherDimensions(t *testing.T) {
	data, err := New(Params{W: 8, M: 4, Seed: 1}).MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{W: 4, M: 4, Seed: 1}, {W: 8, M: 8, Seed: 1}} {
		if err := New(p).UnmarshalBinary(data); err == nil {
			t.Errorf("a %dx%d sketch decoded an 8x4 encoding", p.W, p.M)
		}
	}
	if err := New(Params{W: 8, M: 4, Seed: 2}).UnmarshalBinary(data); err != nil {
		t.Errorf("same dimensions, other seed: %v", err)
	}
	var zero Sketch
	if err := zero.UnmarshalBinary(data); err != nil {
		t.Errorf("zero sketch: %v", err)
	}
}
