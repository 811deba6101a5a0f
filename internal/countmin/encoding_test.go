package countmin

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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

// codecMix draws one counter value for a TestCodecMatchesReference sketch.
type codecMix struct {
	name string
	draw func(rng *rand.Rand) int32
}

// varintBoundaries lists, for every zigzag varint length, the values on
// both sides of where it grows by a byte (63/64, -64/-65, 8191/8192, ...),
// up to math.MinInt32 and math.MaxInt32.
var varintBoundaries = func() []int32 {
	vals := []int32{0, 1, -1, math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1}
	for k := 1; k <= 4; k++ {
		lim := int32(1) << (7*k - 1) // zigzag values below 2^(7k) are [-lim, lim)
		vals = append(vals, lim-1, lim, -lim, -lim-1)
	}
	return vals
}()

// outOfRange are counter values just past the 32-bit range, and the
// 64-bit extremes: their varints are well formed, and every decoder must
// refuse them.
var outOfRange = []int64{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt32 + 2, math.MinInt32 - 2, math.MaxInt64, math.MinInt64}

var codecMixes = []codecMix{
	{"one-byte", func(rng *rand.Rand) int32 { return rng.Int31n(128) - 64 }},
	{"one-two", func(rng *rand.Rand) int32 {
		if rng.Intn(2) == 0 {
			return rng.Int31n(128) - 64
		}
		v := 64 + rng.Int31n(8192-64) // a two-byte magnitude
		if rng.Intn(2) == 0 {
			v = -v - 1
		}
		return v
	}},
	{"three-byte-tail", func(rng *rand.Rand) int32 {
		switch r := rng.Intn(100); {
		case r < 90:
			return rng.Int31n(128) - 64
		case r < 97:
			return 64 + rng.Int31n(8192-64)
		default:
			return 8192 + rng.Int31n(1<<20-8192)
		}
	}},
	{"boundaries", func(rng *rand.Rand) int32 { return varintBoundaries[rng.Intn(len(varintBoundaries))] }},
}

// TestCodecMatchesReference pins the inline one- and two-byte kernels to
// the varint-at-a-time reference below: equal encodings, equal decoded
// counters, and the same verdict (and, when accepted, the same counters)
// on every encoding read one byte short and one byte long, and on every
// single-bit corruption. Each shape and counter mix is also run with the
// last counter forced to one-, two-, three- and five-byte values: the
// inline decoder's end-of-payload edge. Each shape's encoding with a
// counter varint past the 32-bit range, first or last, is refused by both.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	shapes := []Params{{D: 1, W: 1}, {D: 1, W: 2}, {D: 2, W: 3}, {D: 3, W: 7}, {D: 4, W: 16}, {D: 2, W: 40}}
	lastValues := []int32{0, 63, 64, -8193, 1 << 20, math.MinInt32}
	for _, p := range shapes {
		p.Seed = rng.Uint64()
		for _, mix := range codecMixes {
			for li := -1; li < len(lastValues); li++ { // -1: the last counter as drawn
				s := New(p)
				for _, row := range s.rows {
					for j := range row {
						row[j] = mix.draw(rng)
					}
				}
				if li >= 0 {
					s.rows[p.D-1][p.W-1] = lastValues[li]
				}
				name := fmt.Sprintf("%dx%d/%s/last=%d", p.D, p.W, mix.name, s.rows[p.D-1][p.W-1])
				enc, err := s.MarshalBinaryCompact()
				if err != nil {
					t.Fatal(err)
				}
				if want := refMarshal(s); !bytes.Equal(enc, want) {
					t.Fatalf("%s: encoding differs from the reference\n got  %x\n want %x", name, enc, want)
				}
				got := New(p)
				if err := got.UnmarshalBinary(enc); err != nil || !got.Equal(s) {
					t.Fatalf("%s: round trip failed (err %v)", name, err)
				}
				// Read one byte short (keeping the capacity, so a decoder
				// that reads past len would see the real last byte) and
				// one byte long.
				n := len(enc)
				checkCodecAgrees(t, name+"/short", enc[:n-1])
				for _, extra := range []byte{0, 1, 0x80} {
					checkCodecAgrees(t, name+"/long", append(bytes.Clone(enc), extra))
				}
				flipped := bytes.Clone(enc)
				for b := 8 * headerLen; b < 8*n; b++ {
					flipped[b/8] ^= 1 << uint(b%8)
					checkCodecAgrees(t, name+"/flip", flipped)
					flipped[b/8] ^= 1 << uint(b%8)
				}
			}
		}
		for _, v := range outOfRange {
			for _, at := range []int{0, p.D*p.W - 1} {
				vals := make([]int64, p.D*p.W)
				vals[at] = v
				name := fmt.Sprintf("%dx%d/counter %d=%d", p.D, p.W, at, v)
				enc := encodeCounters(p, vals)
				checkCodecAgrees(t, name, enc)
				if err := New(p).UnmarshalBinary(enc); err == nil {
					t.Fatalf("%s: a counter past the 32-bit range was accepted", name)
				}
			}
		}
	}
}

// encodeCounters encodes a sketch of p whose counters are vals, row-major,
// which may lie outside the 32-bit range no Sketch holds.
func encodeCounters(p Params, vals []int64) []byte {
	out := binary.LittleEndian.AppendUint32([]byte{wireMagic}, uint32(p.D))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.W))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	for _, v := range vals {
		out = binary.AppendVarint(out, v)
	}
	return out
}

// checkCodecAgrees decodes data with the kernel and the reference, into
// both a zero Sketch and a sketch of the header's shape holding stale
// counters, and fails unless both reject it or both accept it with the
// same counters.
func checkCodecAgrees(t *testing.T, name string, data []byte) {
	t.Helper()
	var got, want Sketch
	err, refErr := got.UnmarshalBinary(data), refUnmarshal(&want, data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: data %x: err %v, reference err %v", name, data, err, refErr)
	}
	if err != nil {
		return
	}
	if !got.Equal(&want) {
		t.Fatalf("%s: data %x: decode differs from the reference", name, data)
	}
	stale := want.Clone()
	for _, row := range stale.rows {
		for j := range row {
			row[j] = 0x5a5a
		}
	}
	if err := stale.UnmarshalBinary(data); err != nil || !stale.Equal(&want) {
		t.Fatalf("%s: data %x: decode into a used sketch differs (err %v)", name, data, err)
	}
}

// TestMarshalExactSize pins the encoder's allocation: one exactly sized
// slice per call after warm-up, at both design widths, with one- and
// two-byte counters and with counters long enough to grow the scratch.
// The allocation count is not checked under the race detector.
func TestMarshalExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, w := range []int{WidthForMemory(2<<20, DefaultDepth), 1024} {
		for _, mix := range []codecMix{codecMixes[1], codecMixes[3]} {
			s := New(Params{D: DefaultDepth, W: w, Seed: 5})
			for _, row := range s.rows {
				for j := range row {
					row[j] = mix.draw(rng)
				}
			}
			enc, err := s.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) != cap(enc) {
				t.Fatalf("w=%d %s: len %d, cap %d", w, mix.name, len(enc), cap(enc))
			}
			if !bytes.Equal(enc, refMarshal(s)) {
				t.Fatalf("w=%d %s: encoding differs from the reference", w, mix.name)
			}
			if raceEnabled {
				continue
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.MarshalBinaryCompact(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("w=%d %s: %.1f allocations per encode, want 1", w, mix.name, allocs)
			}
		}
	}
}

// TestMarshalConcurrent encodes two shared sketches of different sizes
// from several goroutines at once, as the center's push memo does, and
// checks every result only after the last encode: a result that aliased
// pooled scratch a later call reused no longer matches. Run under -race.
func TestMarshalConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	sketches := []*Sketch{New(Params{D: 2, W: 300, Seed: 1}), New(Params{D: 4, W: 1024, Seed: 2})}
	var want [][]byte
	for _, s := range sketches {
		for _, row := range s.rows {
			for j := range row {
				row[j] = codecMixes[3].draw(rng)
			}
		}
		want = append(want, refMarshal(s))
	}
	const goroutines, calls = 8, 50
	got := make([][][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				enc, err := sketches[(g+i)%2].MarshalBinaryCompact()
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], enc)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, enc := range got[g] {
			if !bytes.Equal(enc, want[(g+i)%2]) {
				t.Fatalf("goroutine %d call %d: encoding differs from the reference", g, i)
			}
		}
	}
}

// The varint-at-a-time kernels the inline ones replaced, kept verbatim as
// the reference for TestCodecMatchesReference and FuzzUnmarshalBinary.

// refMarshal encodes s little-endian: magic, D, W, Seed, then the D*W
// counters row-major as zigzag varints.
func refMarshal(s *Sketch) []byte {
	p := s.params
	out := make([]byte, 0, 1+4+4+8+p.D*p.W)
	out = append(out, wireMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.D))
	out = binary.LittleEndian.AppendUint32(out, uint32(p.W))
	out = binary.LittleEndian.AppendUint64(out, p.Seed)
	for _, row := range s.rows {
		for _, v := range row {
			out = binary.AppendVarint(out, int64(v))
		}
	}
	return out
}

// refUnmarshal decodes an encoding made by refMarshal into s, with the
// same dimension rule and rejections as UnmarshalBinary, the 32-bit
// counter range among them.
func refUnmarshal(s *Sketch, data []byte) error {
	if len(data) < 1+4+4+8 {
		return fmt.Errorf("countmin: truncated sketch encoding")
	}
	if data[0] != wireMagic {
		return fmt.Errorf("countmin: bad magic byte %#x (want %#x)", data[0], wireMagic)
	}
	off := 1
	d := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	w := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	seed := binary.LittleEndian.Uint64(data[off:])
	off += 8
	p := Params{D: d, W: w, Seed: seed}
	if s.params.W != 0 && (d != s.params.D || w != s.params.W) {
		return fmt.Errorf("countmin: decode: encoding is %dx%d, want %dx%d", d, w, s.params.D, s.params.W)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("countmin: decode: %w", err)
	}
	// Bound dimensions before trusting them for allocation: a hostile
	// header must not drive memory use or overflow the size arithmetic.
	const maxCells = 1 << 28
	if d > maxCells || w > maxCells || d*w > maxCells {
		return fmt.Errorf("countmin: decode: implausible dimensions %dx%d", d, w)
	}
	// Every counter takes at least one varint byte.
	if len(data)-off < d*w {
		return fmt.Errorf("countmin: %d payload bytes for %d counters", len(data)-off, d*w)
	}
	rows := s.rows
	if len(rows) != d {
		rows = make([][]int32, d)
	}
	for i := range rows {
		if len(rows[i]) != w {
			rows[i] = make([]int32, w)
		}
	}
	for i := range rows {
		for j := range rows[i] {
			v, n := binary.Varint(data[off:])
			if n <= 0 {
				return fmt.Errorf("countmin: truncated or malformed counter varint (row %d, col %d)", i, j)
			}
			// Reject overlong varints (trailing zero continuation group):
			// encodings stay canonical.
			if n > 1 && data[off+n-1] == 0 {
				return fmt.Errorf("countmin: non-minimal counter varint (row %d, col %d)", i, j)
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				return fmt.Errorf("countmin: counter %d outside the 32-bit range (row %d, col %d)", v, i, j)
			}
			rows[i][j] = int32(v)
			off += n
		}
	}
	if off != len(data) {
		return fmt.Errorf("countmin: %d trailing bytes", len(data)-off)
	}
	s.params = p
	s.rows = rows
	s.initDerived()
	return nil
}
