package countmin

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// wireMagic opens the binary encoding of a CountMin sketch: the header
// (magic, D, W, Seed) followed by the D*W counters row-major as zigzag
// varints, since a fresh epoch's counters are mostly zero or small (one
// byte each). It is the only encoding; a payload under any other magic is
// rejected, and so is a counter varint outside the 32-bit range.
const wireMagic = 0xC4

// inCounterRange reports whether a decoded varint fits a 32-bit counter.
func inCounterRange(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// headerLen is the encoding's fixed header: magic, D, W, Seed.
const headerLen = 1 + 4 + 4 + 8

// parseHeader reads and bounds an encoding's header: a hostile header must
// not drive memory use or overflow the size arithmetic.
func parseHeader(data []byte) (Params, error) {
	if len(data) < headerLen {
		return Params{}, fmt.Errorf("countmin: truncated sketch encoding")
	}
	if data[0] != wireMagic {
		return Params{}, fmt.Errorf("countmin: bad magic byte %#x (want %#x)", data[0], wireMagic)
	}
	p := Params{
		D:    int(binary.LittleEndian.Uint32(data[1:])),
		W:    int(binary.LittleEndian.Uint32(data[5:])),
		Seed: binary.LittleEndian.Uint64(data[9:]),
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("countmin: decode: %w", err)
	}
	const maxCells = 1 << 28
	if p.D > maxCells || p.W > maxCells || p.D*p.W > maxCells {
		return p, fmt.Errorf("countmin: decode: implausible dimensions %dx%d", p.D, p.W)
	}
	return p, nil
}

// encodeScratch holds MarshalBinaryCompact's scratch buffers. Each call
// takes its own, so concurrent encodes of one sketch never share one.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// MarshalBinaryCompact encodes the sketch little-endian: magic, D, W, Seed,
// then the D*W counters row-major as zigzag varints. The counters go into
// pooled scratch sized at two bytes each, which holds every counter in
// [-8192, 8192) (zigzag form below 2^14) without a length branch; a longer
// one grows it. The result is one exactly sized slice.
func (s *Sketch) MarshalBinaryCompact() ([]byte, error) {
	p := s.params
	bp := encodeScratch.Get().(*[]byte)
	buf := *bp
	if need := headerLen + 2*p.D*p.W; len(buf) < need {
		buf = make([]byte, need)
	}
	buf[0] = wireMagic
	binary.LittleEndian.PutUint32(buf[1:], uint32(p.D))
	binary.LittleEndian.PutUint32(buf[5:], uint32(p.W))
	binary.LittleEndian.PutUint64(buf[9:], p.Seed)
	// buf keeps two bytes of room for every counter not yet written.
	k := headerLen
	for i, row := range s.rows {
		for j := 0; ; j++ {
			n, m := putShort(buf[k:], row[j:])
			j, k = j+n, k+m
			if j == len(row) {
				break
			}
			// row[j] takes three or more bytes.
			if need := k + binary.MaxVarintLen32 + 2*((p.D-i)*p.W-j-1); need > len(buf) {
				grown := make([]byte, need+len(buf)/4)
				copy(grown, buf[:k])
				buf = grown
			}
			k += binary.PutVarint(buf[k:], int64(row[j]))
		}
	}
	out := make([]byte, k)
	copy(out, buf[:k])
	*bp = buf
	encodeScratch.Put(bp)
	return out, nil
}

// putShort zigzag-encodes the leading counters of row that lie in
// [-8192, 8192), one or two varint bytes each, into buf, which has two
// bytes of room for each counter, and returns how many counters it encoded
// and how many bytes they took.
func putShort(buf []byte, row []int32) (n, k int) {
	for n < len(row) {
		v := row[n]
		u := uint32(v<<1) ^ uint32(v>>31) // zigzag
		if u >= 1<<14 {
			break
		}
		// Write both bytes: a one-byte value's second byte is zero, and
		// the next counter overwrites it.
		hi := u >> 7
		more := (hi + 0x7f) >> 7 // 1 iff hi != 0
		b := buf[k : k+2]
		b[0] = byte(u) | byte(more<<7)
		b[1] = byte(hi)
		k += 1 + int(more)
		n++
	}
	return n, k
}

// getShort decodes the leading counters of body into row while they are
// canonical one- or two-byte zigzag varints and do not end in body's last
// byte, and returns how many counters it decoded and how many bytes they
// took. It stops before anything else, which the caller's binary.Varint
// path decodes or rejects.
func getShort(row []int32, body []byte) (n, k int) {
	for n < len(row) && k+1 < len(body) {
		b0 := body[k]
		if b0 < 0x80 {
			row[n] = int32(b0>>1) ^ -int32(b0&1)
			k++
			n++
			continue
		}
		// A second byte of zero would be an overlong encoding.
		b1 := body[k+1]
		if b1 >= 0x80 || b1 == 0 {
			break
		}
		u := uint32(b0&0x7f) | uint32(b1)<<7
		row[n] = int32(u>>1) ^ -int32(u&1)
		k += 2
		n++
	}
	return n, k
}

// UnmarshalBinary decodes a sketch previously encoded by
// MarshalBinaryCompact. A sketch that already has dimensions (anything but
// the zero Sketch) accepts only an encoding of those dimensions, rejected
// from the header before anything is allocated, and reuses its counter
// rows, so a pooled scratch sketch decodes epoch after epoch without
// allocating. The zero Sketch accepts any dimensions. On error the counter
// contents are unspecified but the sketch stays structurally valid.
//
// Only canonical encodings are accepted: a non-minimal varint, a truncated
// or overflowing one, one outside the 32-bit counter range, and trailing
// bytes are all rejected. One- and two-byte counters, nearly all of them
// in practice, decode inline; longer ones and a counter in the payload's
// last byte go through binary.Varint.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	p, err := parseHeader(data)
	if err != nil {
		return err
	}
	d, w := p.D, p.W
	if s.params.W != 0 && (d != s.params.D || w != s.params.W) {
		return fmt.Errorf("countmin: decode: encoding is %dx%d, want %dx%d", d, w, s.params.D, s.params.W)
	}
	body := data[headerLen:]
	// Every counter takes at least one varint byte.
	if len(body) < d*w {
		return fmt.Errorf("countmin: %d payload bytes for %d counters", len(body), d*w)
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
	k := 0
	for i, row := range rows {
		for j := 0; ; j++ {
			n, m := getShort(row[j:], body[k:])
			j, k = j+n, k+m
			if j == len(row) {
				break
			}
			v, n := binary.Varint(body[k:])
			if n <= 0 {
				return fmt.Errorf("countmin: truncated or malformed counter varint (row %d, col %d)", i, j)
			}
			// Reject overlong varints (trailing zero continuation group):
			// encodings stay canonical.
			if n > 1 && body[k+n-1] == 0 {
				return fmt.Errorf("countmin: non-minimal counter varint (row %d, col %d)", i, j)
			}
			if !inCounterRange(v) {
				return fmt.Errorf("countmin: counter %d outside the 32-bit range (row %d, col %d)", v, i, j)
			}
			row[j] = int32(v)
			k += n
		}
	}
	if k != len(body) {
		return fmt.Errorf("countmin: %d trailing bytes", len(body)-k)
	}
	s.params = p
	s.rows = rows
	s.initDerived()
	return nil
}
