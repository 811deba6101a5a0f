package countmin

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var genCorpus = flag.Bool("gen-corpus", false, "rewrite the committed fuzz seed corpus in testdata/fuzz")

// TestGenerateFuzzCorpus rewrites the committed seed corpus when run with
// -gen-corpus, in the `go test fuzz v1` format the fuzzer reads from
// testdata/fuzz/<Target>, so `make fuzz-short` starts from real encodings
// instead of rediscovering the wire magic.
func TestGenerateFuzzCorpus(t *testing.T) {
	if !*genCorpus {
		t.Skip("run with -gen-corpus to rewrite testdata/fuzz")
	}
	var seeds [][]byte
	for _, p := range []Params{{D: 2, W: 4, Seed: 9}, {D: 4, W: 64, Seed: 11}} {
		s := New(p)
		for f := uint64(0); f < 16; f++ {
			s.Add(f, int64(f)+1)
		}
		s.Add(1, -3) // negative counters exercise the zigzag path
		compact, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		empty, err := New(p).MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		// The retired fixed encoding's magic over a compact body must be
		// rejected.
		legacy := append([]byte{0xC3}, compact[1:]...)
		seeds = append(seeds, legacy, compact, empty, compact[:len(compact)/2])
	}
	// Edges of the inline one- and two-byte decode: an overlong two-byte
	// value, a ten-byte math.MinInt64 (past the 32-bit range), an
	// eleven-byte varint (overflow), and a payload whose last counter
	// takes two bytes.
	header := func(d, w int) []byte {
		h := binary.LittleEndian.AppendUint32([]byte{wireMagic}, uint32(d))
		h = binary.LittleEndian.AppendUint32(h, uint32(w))
		return binary.LittleEndian.AppendUint64(h, 9)
	}
	encode := func(s *Sketch) []byte {
		b, err := s.MarshalBinaryCompact()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	lastTwo := New(Params{D: 2, W: 4, Seed: 9})
	lastTwo.rows[1][3] = 100
	seeds = append(seeds,
		append(header(1, 2), 0x80, 0x00, 0x02),
		append(binary.AppendVarint(header(1, 2), math.MinInt64), 0x00),
		append(append(header(1, 1), bytes.Repeat([]byte{0xff}, 10)...), 0x01),
		encode(lastTwo))
	// The 32-bit counter range: math.MinInt32 is accepted; a varint just
	// past either end, first in the payload or in its last byte, is
	// refused.
	minInt := New(Params{D: 1, W: 2, Seed: 9})
	minInt.rows[0][0] = math.MinInt32
	seeds = append(seeds,
		encode(minInt),
		append(binary.AppendVarint(header(1, 2), math.MinInt32-1), 0x00),
		binary.AppendVarint(append(header(1, 2), 0x00), math.MaxInt32+1),
		append(binary.AppendVarint(header(2, 4), math.MaxInt32+1), 0, 0, 0, 0, 0, 0, 0))
	writeSeedCorpus(t, "FuzzUnmarshalBinary", seeds)
}

// writeSeedCorpus writes one-[]byte-argument seed files for target.
func writeSeedCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
