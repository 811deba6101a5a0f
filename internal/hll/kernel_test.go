package hll

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// registerKernel is one implementation of the two register kernels under
// test. A whole kernel covers all n registers; the bare SSE2 loops cover
// only the n/64*64 in full 64-register blocks and must leave the rest, and
// every byte around the slices, untouched.
type registerKernel struct {
	name     string
	merge    func(dst, src []uint8)
	presence func(bitmap []uint64, r Regs)
	whole    bool
	maxVal   uint8 // largest register value the merge is exact for
}

// registerKernels lists the portable kernels and the build's dispatch
// (SSE2 plus the portable tail on amd64 without -race); kernel_amd64_test.go
// adds the bare SSE2 loops.
var registerKernels = []registerKernel{
	{name: "swar", merge: maxBytesSWAR, presence: presenceSWAR, whole: true, maxVal: MaxRegisterValue},
	{name: "dispatch", merge: maxBytes, presence: presence, whole: true, maxVal: MaxRegisterValue},
}

func (k registerKernel) covered(n int) int {
	if k.whole {
		return n
	}
	return n &^ 63
}

// scalarPresence is the model presence bitmap of r.
func scalarPresence(r Regs) []uint64 {
	bitmap := make([]uint64, (len(r)+63)/64)
	for i, v := range r {
		if v != 0 {
			bitmap[i/64] |= 1 << uint(i%64)
		}
	}
	return bitmap
}

// fillRegs fills buf with values in [0, maxVal], half of them zero when
// sparse is set.
func fillRegs(rng *rand.Rand, buf []uint8, maxVal uint8, sparse bool) {
	rng.Read(buf)
	for i, v := range buf {
		switch {
		case sparse && v&1 == 0:
			buf[i] = 0
		case maxVal != 255:
			buf[i] = v % (maxVal + 1)
		}
	}
}

const kernelGuard = 16 // guard bytes (words, for bitmaps) on each side

// TestRegisterKernelsMatchScalar is the referee for the register kernels:
// every kernel against the scalar model at every length 0..300, with dst
// and src each placed at every offset 0..15 inside a larger buffer whose
// guard bytes must come out untouched. Register values span 0..31, and
// 0..255 for the kernels whose merge is an exact unsigned byte max.
func TestRegisterKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const maxN = 300
	dfill := make([]uint8, 2*kernelGuard+16+maxN)
	sfill := make([]uint8, len(dfill))
	dbuf, sbuf, want := make([]uint8, len(dfill)), make([]uint8, len(dfill)), make([]uint8, len(dfill))
	bbuf := make([]uint64, 2*kernelGuard+(maxN+63)/64)
	for _, k := range registerKernels {
		for _, maxVal := range []uint8{MaxRegisterValue, 255} {
			if maxVal > k.maxVal {
				continue
			}
			for n := 0; n <= maxN; n++ {
				cover := k.covered(n)
				fillRegs(rng, dfill, maxVal, false)
				fillRegs(rng, sfill, maxVal, false)
				for do := 0; do < 16; do++ {
					for so := 0; so < 16; so++ {
						copy(dbuf, dfill)
						copy(sbuf, sfill)
						copy(want, dfill)
						dst := dbuf[kernelGuard+do : kernelGuard+do+n]
						src := sbuf[kernelGuard+so : kernelGuard+so+n]
						for i := 0; i < cover; i++ {
							want[kernelGuard+do+i] = max(want[kernelGuard+do+i], src[i])
						}
						k.merge(dst, src)
						if !bytes.Equal(dbuf, want) {
							i := firstDiff(dbuf, want) - kernelGuard - do
							t.Fatalf("%s merge, values <= %d, n=%d dst+%d src+%d: byte %d (of %d covered) is %d, want %d",
								k.name, maxVal, n, do, so, i, cover, dbuf[kernelGuard+do+i], want[kernelGuard+do+i])
						}
						if !bytes.Equal(sbuf, sfill) {
							t.Fatalf("%s merge, n=%d dst+%d src+%d: wrote src", k.name, n, do, so)
						}
					}
				}
				for off := 0; off < 16; off++ {
					fillRegs(rng, dbuf, maxVal, true)
					for i := range bbuf {
						bbuf[i] = rng.Uint64()
					}
					r := Regs(dbuf[kernelGuard+off : kernelGuard+off+n])
					model := scalarPresence(r)
					want := slices.Clone(bbuf)
					copy(want[kernelGuard:], model[:(k.covered(n)+63)/64])
					k.presence(bbuf[kernelGuard:kernelGuard+len(model)], r)
					if !slices.Equal(bbuf, want) {
						i := firstDiff(bbuf, want) - kernelGuard
						t.Fatalf("%s presence, values <= %d, n=%d r+%d: word %d (of %d) is %#x, want %#x",
							k.name, maxVal, n, off, i, len(model), bbuf[kernelGuard+i], want[kernelGuard+i])
					}
				}
			}
		}
	}
}

func firstDiff[E comparable](a, b []E) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// uploadRegs is the register count of a 2 Mb rSkt2 point (two rows of
// 209,664), and uploadNonzero the 8.7% of them an ingest-spread upload
// sets.
const (
	uploadRegs    = 419328
	uploadNonzero = uploadRegs * 87 / 1000
)

// TestRegisterKernelsAtUploadSize runs every kernel over one upload-sized
// array at the upload's density against the scalar model.
func TestRegisterKernelsAtUploadSize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k := uploadNonzero
	a, b := regsWithNonzero(rng, uploadRegs, k), regsWithNonzero(rng, uploadRegs, k)
	want := a.Clone()
	scalarMergeMax(want, b)
	model := scalarPresence(a)
	for _, kern := range registerKernels {
		got := a.Clone()
		kern.merge(got, b)
		if !got.Equal(want) {
			t.Fatalf("%s merge differs from the scalar model at register %d", kern.name, firstDiff(got, want))
		}
		bitmap := make([]uint64, len(model))
		kern.presence(bitmap, a)
		if !slices.Equal(bitmap, model) {
			t.Fatalf("%s presence differs from the scalar model at word %d", kern.name, firstDiff(bitmap, model))
		}
	}
	got := a.Clone()
	MergeMaxBytes(got, b)
	if !got.Equal(want) {
		t.Fatalf("MergeMaxBytes differs from the scalar model at register %d", firstDiff(got, want))
	}
	if plan := planCompact(a); !plan.sparse || !slices.Equal(plan.words, model) ||
		plan.size != 1+runWordsLen(model)+8*PackedWords(k) {
		t.Fatalf("the upload's compact plan is not the sparse one its %d nonzero registers give", k)
	}
}

var kernelSink int

// BenchmarkMergeMaxBytes folds one upload-sized array into another.
func BenchmarkMergeMaxBytes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dst, src := regsWithNonzero(rng, uploadRegs, uploadNonzero), regsWithNonzero(rng, uploadRegs, uploadNonzero)
	b.SetBytes(uploadRegs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeMaxBytes(dst, src)
	}
	kernelSink = int(dst[0])
}

// BenchmarkPresence builds one upload-sized array's presence bitmap, the
// first pass of every compact encode.
func BenchmarkPresence(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := regsWithNonzero(rng, uploadRegs, uploadNonzero)
	bitmap := make([]uint64, (uploadRegs+63)/64)
	b.SetBytes(uploadRegs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		presence(bitmap, r)
	}
	kernelSink = int(bitmap[0])
}
