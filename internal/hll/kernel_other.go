//go:build !amd64 || race

package hll

func maxBytes(dst, src []uint8) { maxBytesSWAR(dst, src) }

func presence(bitmap []uint64, r Regs) { presenceSWAR(bitmap, r) }
