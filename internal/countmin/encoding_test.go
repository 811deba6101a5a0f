package countmin

import (
	"encoding"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
)

var _ encoding.BinaryUnmarshaler = (*Sketch)(nil)

func TestEncodingRoundTrip(t *testing.T) {
	s := New(Params{D: 5, W: 33, Seed: 77})
	for f := uint64(0); f < 200; f++ {
		s.Add(f, int64(f%29)-3) // include negative counters
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

func TestDecodeErrors(t *testing.T) {
	s := New(Params{D: 2, W: 4, Seed: 1})
	data, err := s.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	var g Sketch
	if err := g.UnmarshalBinary(data[:3]); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte{}, data...)
	bad[0] = 0
	if err := g.UnmarshalBinary(bad); err == nil {
		t.Fatal("expected magic error")
	}
	if err := g.UnmarshalBinary(append(data, 1, 2, 3)); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
	// A bare header claiming 2^24 counters must be rejected before they
	// are allocated: every counter takes at least one payload byte.
	hostile := binary.LittleEndian.AppendUint32([]byte{wireMagic}, 1)
	hostile = binary.LittleEndian.AppendUint32(hostile, 1<<24)
	hostile = binary.LittleEndian.AppendUint64(hostile, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = g.UnmarshalBinary(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("expected payload-size error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a 17-byte header allocated %d bytes", grew)
	}
}

func TestEncodingQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, flows uint8) bool {
		s := New(Params{D: 3, W: 16, Seed: seed})
		for f := uint64(0); f < uint64(flows); f++ {
			s.Add(f, int64(f+1))
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
	data, err := New(Params{D: 2, W: 8, Seed: 1}).MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{D: 2, W: 4, Seed: 1}, {D: 3, W: 8, Seed: 1}} {
		if err := New(p).UnmarshalBinary(data); err == nil {
			t.Errorf("a %dx%d sketch decoded a 2x8 encoding", p.D, p.W)
		}
	}
	var zero Sketch
	if err := zero.UnmarshalBinary(data); err != nil {
		t.Errorf("zero sketch: %v", err)
	}
}
