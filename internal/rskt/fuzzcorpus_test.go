package rskt

import (
	"flag"
	"fmt"
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
	for _, p := range []Params{{W: 4, M: 8, Seed: 1}, {W: 32, M: 4, Seed: 11}} {
		s := New(p)
		for e := 0; e < 50; e++ {
			s.Record(uint64(e)%5, uint64(e))
		}
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
		legacy := append([]byte{0xA7}, compact[1:]...)
		seeds = append(seeds, legacy, compact, empty, compact[:len(compact)/2])
	}
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
