//go:build amd64 && !race

package hll

// The SSE2 register kernels. Race builds run the portable ones instead
// (kernel_other.go): the race detector cannot see assembly writes.

//go:noescape
func maxBytesSSE2(dst, src []uint8)

//go:noescape
func presenceSSE2(bitmap []uint64, r Regs)

func maxBytes(dst, src []uint8) {
	full := len(dst) &^ 63
	maxBytesSSE2(dst[:full], src[:full])
	maxBytesSWAR(dst[full:], src[full:])
}

func presence(bitmap []uint64, r Regs) {
	full := len(r) &^ 63
	presenceSSE2(bitmap[:full/64], r[:full])
	presenceSWAR(bitmap[full/64:], r[full:])
}
