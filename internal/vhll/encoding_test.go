package vhll

import (
	"testing"
)

func TestMarshalRoundTrip(t *testing.T) {
	p := Params{PhysicalRegisters: 256, VirtualRegisters: 32, Seed: 9}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for f := uint64(0); f < 50; f++ {
		for e := uint64(0); e < 20; e++ {
			s.Record(f, f<<16|e)
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
	if got.params != p {
		t.Fatalf("params %+v, want %+v", got.params, p)
	}
	if !got.regs.Equal(s.regs) {
		t.Fatal("registers differ after round trip")
	}
	if a, b := s.Estimate(7), got.Estimate(7); a != b {
		t.Fatalf("estimate changed across round trip: %v vs %v", a, b)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     {wireMagic, 1, 2, 3},
		"bad magic": append([]byte{0x00}, make([]byte, 32)...),
	}
	good, err := New(Params{PhysicalRegisters: 64, VirtualRegisters: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := good.MarshalBinaryCompact()
	cases["truncated payload"] = data[:len(data)-3]
	cases["trailing bytes"] = append(append([]byte(nil), data...), 0)
	for name, in := range cases {
		var s Sketch
		if err := s.UnmarshalBinary(in); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

// FuzzUnmarshalBinary checks the decoder never panics and that any input
// it accepts round-trips to identical bytes (a canonical encoding).
func FuzzUnmarshalBinary(f *testing.F) {
	good, err := New(Params{PhysicalRegisters: 64, VirtualRegisters: 16, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		good.Record(i%7, i)
	}
	seed, _ := good.MarshalBinaryCompact()
	f.Add(seed)
	f.Add(append([]byte{0xB3}, seed[1:]...)) // the retired fixed encoding's magic
	f.Add([]byte{wireMagic})
	f.Add(seed[:len(seed)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if string(out) != string(data) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, out)
		}
		// A decoded sketch must be usable.
		s.Record(1, 2)
		_ = s.Estimate(1)
	})
}

// TestDecodeRejectsOtherDimensions: a sketch with a size accepts only an
// encoding of that size; the zero Sketch accepts any.
func TestDecodeRejectsOtherDimensions(t *testing.T) {
	src, err := New(Params{PhysicalRegisters: 64, VirtualRegisters: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := src.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{PhysicalRegisters: 32, VirtualRegisters: 8}, {PhysicalRegisters: 64, VirtualRegisters: 16}} {
		dst, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.UnmarshalBinary(data); err == nil {
			t.Errorf("a %d/%d sketch decoded a 64/8 encoding", p.PhysicalRegisters, p.VirtualRegisters)
		}
	}
	var zero Sketch
	if err := zero.UnmarshalBinary(data); err != nil {
		t.Errorf("zero sketch: %v", err)
	}
}
