package hll

import "encoding/binary"

// SWAR (SIMD-within-a-register) byte-parallel register operations. Register
// values never exceed MaxRegisterValue = 31 < 0x80, which is the
// precondition the branchless byte-wise max below relies on: when every
// byte of both operands is at most 0x7F, the subtraction (y|H)-x cannot
// borrow across byte lanes, so the high bit of each byte of the result
// records that lane's comparison independently.

const swarHigh = 0x8080808080808080

// mergeMaxWord returns the lane-wise max of eight registers packed one per
// byte. Every byte of x and y must be <= 0x7F.
func mergeMaxWord(x, y uint64) uint64 {
	t := ((y | swarHigh) - x) & swarHigh // high bit set in lanes where y >= x
	mask := (t - (t >> 7)) | t           // 0xFF in lanes where y >= x, else 0x00
	return (y & mask) | (x &^ mask)
}

// MergeMaxBytes folds src into dst by element-wise max: on amd64 one SSE2
// PMAXUB loop, 64 registers an iteration (kernel_amd64.s). The slices must
// have equal length and hold register values (<= MaxRegisterValue). This
// is the shared inner loop of every register merge: temporal/spatial/ST
// joins, C' <- push application, and the column folds of CompressTo.
func MergeMaxBytes(dst, src []uint8) {
	maxBytes(dst, src[:len(dst)]) // equal lengths, checked by callers
}

// maxBytesSWAR is the portable register merge: eight registers per 64-bit
// step with a scalar tail.
func maxBytesSWAR(dst, src []uint8) {
	src = src[:len(dst)] // helps BCE
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x := binary.LittleEndian.Uint64(dst[i:])
		y := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], mergeMaxWord(x, y))
	}
	for ; i < len(dst); i++ {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// IsZero reports whether every register is zero, eight registers per step.
// Epoch boundaries use it to skip encoding and shipping untouched rows.
func (r Regs) IsZero() bool {
	i := 0
	for ; i+8 <= len(r); i += 8 {
		if binary.LittleEndian.Uint64(r[i:]) != 0 {
			return false
		}
	}
	for ; i < len(r); i++ {
		if r[i] != 0 {
			return false
		}
	}
	return true
}
