package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// One binary frame carries every message between nodes, and the same
// appender and bounds-checked reader build and parse every checkpoint
// section. All integers are little-endian. A frame is
//
//	u32  length: the bytes after the kind byte (header + sketch bytes)
//	u8   kind
//	     the kind's fixed header
//	     the sketch bytes (Upload and Push only)
//
// The reader checks the declared length against the kind's bounds before
// it allocates anything: Hello, Welcome and Heartbeat have exact sizes,
// and Upload and Push carry at most maxSketchBytes of sketch payload.
// docs/PROTOCOL.md has the byte table of every kind.

// Frame kinds.
const (
	frameHello byte = 1 + iota
	frameWelcome
	frameUpload
	framePush
	frameHeartbeat
)

// Fixed header sizes, one per kind (see the append functions below).
const (
	helloBytes     = 25
	welcomeBytes   = 24
	heartbeatBytes = 12
	uploadHeader   = 13
	pushHeader     = 21
)

// maxSketchBytes caps the sketch bytes of one Upload or Push frame. A
// sketch encodes in a 17-byte header plus at most 10 bytes per CountMin
// counter or 5/8 of a byte per HLL register, so the cap holds a push of
// two sketches of up to 50M counters or 800M registers each — three
// orders of magnitude above the 2 Mb sketches the paper deploys per point.
const maxSketchBytes = 1 << 30

// frameChunk is the most readFrame allocates ahead of the bytes arriving:
// a longer body grows by doubling as it is received, so a peer that
// declares a large frame and stalls costs at most this much.
const frameChunk = 1 << 20

// frameBounds[kind] is the shortest and longest length a frame of the kind
// may declare.
var frameBounds = [...]struct{ min, max uint32 }{
	frameHello:     {helloBytes, helloBytes},
	frameWelcome:   {welcomeBytes, welcomeBytes},
	frameUpload:    {uploadHeader, uploadHeader + maxSketchBytes},
	framePush:      {pushHeader, pushHeader + maxSketchBytes},
	frameHeartbeat: {heartbeatBytes, heartbeatBytes},
}

// errGob is what a peer or a checkpoint written by the retired
// encoding/gob protocol gets: a named rejection, not a parse error.
var errGob = errors.New("input is encoding/gob (the retired format); this binary reads only binary frames")

// looksLikeGob reports whether b opens like an encoding/gob stream: a
// message length, then a negative type id — the type definition every gob
// stream starts with. Gob writes an unsigned value above 127 as its
// negated byte count followed by its big-endian bytes, and a negative int
// as an odd unsigned. User type ids start at 64, written 0x7F; larger ids
// take one or two bytes after the count.
func looksLikeGob(b []byte) bool {
	i := 1
	if len(b) > 0 && b[0] >= 0x80 {
		i += 256 - int(b[0])
	}
	switch {
	case len(b) <= i:
		return false
	case b[i] == 0x7F:
		return true
	case b[i] == 0xFF || b[i] == 0xFE:
		n := 256 - int(b[i])
		return len(b) > i+n && b[i+n]&1 == 1
	}
	return false
}

// appender builds frames and checkpoint sections.
type appender struct{ b []byte }

func (a *appender) u8(v byte)      { a.b = append(a.b, v) }
func (a *appender) u32(v int)      { a.b = binary.LittleEndian.AppendUint32(a.b, uint32(v)) }
func (a *appender) u64(v uint64)   { a.b = binary.LittleEndian.AppendUint64(a.b, v) }
func (a *appender) i64(v int64)    { a.u64(uint64(v)) }
func (a *appender) raw(p []byte)   { a.b = append(a.b, p...) }
func (a *appender) blob(p []byte)  { a.u32(len(p)); a.raw(p) }
func (a *appender) kind(k Kind)    { a.u8(kindByte(k)) }
func (a *appender) boolean(v bool) { a.flags(v) }

// flags packs bits[i] into bit i of one byte.
func (a *appender) flags(bits ...bool) {
	var f byte
	for i, b := range bits {
		if b {
			f |= 1 << i
		}
	}
	a.u8(f)
}

// begin opens a frame of the given kind; end writes its length.
func (a *appender) begin(kind byte) int {
	a.b = append(a.b, 0, 0, 0, 0, kind)
	return len(a.b)
}

func (a *appender) end(start int) {
	binary.LittleEndian.PutUint32(a.b[start-5:], uint32(len(a.b)-start))
}

// reader parses what appender built. A read past the end, or a failed
// check, records the first error and yields zero values from then on, so
// a parser reads every field and tests err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes (nil for n == 0), aliasing the input.
func (r *reader) take(n int) []byte {
	if r.err != nil || n == 0 {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("truncated at byte %d: need %d bytes, have %d", r.off, n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *reader) u32() int {
	if p := r.take(4); p != nil {
		return int(binary.LittleEndian.Uint32(p))
	}
	return 0
}

func (r *reader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *reader) i64() int64    { return int64(r.u64()) }
func (r *reader) blob() []byte  { return r.take(r.u32()) }
func (r *reader) rest() []byte  { return r.take(len(r.b) - r.off) }
func (r *reader) boolean() bool { return r.flags(1)&1 != 0 }

// flags reads a byte of n flag bits; any other bit set is an error.
func (r *reader) flags(n int) byte {
	f := r.u8()
	if f>>n != 0 {
		r.fail("flag byte %#02x has undefined bits", f)
	}
	return f
}

func (r *reader) kind() Kind {
	b := r.u8()
	switch b {
	case 's':
		return KindSpread
	case 'z':
		return KindSize
	}
	r.fail("unknown design byte %#02x", b)
	return ""
}

// count reads an entry count, bounded by the bytes left at minEntry bytes
// per entry so a hostile count never sizes an allocation.
func (r *reader) count(minEntry int) int {
	n := r.u32()
	if n > (len(r.b)-r.off)/minEntry {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b)-r.off)
		return 0
	}
	return n
}

// done fails on trailing bytes and returns the first error.
func (r *reader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// kindByte is a design's byte on the wire and in checkpoints.
func kindByte(k Kind) byte {
	switch k {
	case KindSpread:
		return 's'
	case KindSize:
		return 'z'
	}
	return 0
}

// checkFrame validates a frame's length and kind against the kinds the
// reader expects, before its body is read.
func checkFrame(hdr []byte, kinds []byte) (int, byte, error) {
	n, kind := binary.LittleEndian.Uint32(hdr), hdr[4]
	known := slices.Contains(kinds, kind)
	if known && n >= frameBounds[kind].min && n <= frameBounds[kind].max {
		return int(n), kind, nil
	}
	switch {
	case looksLikeGob(hdr):
		return 0, 0, errGob
	case !known:
		return 0, 0, fmt.Errorf("unexpected frame kind %d (want one of %v)", kind, kinds)
	}
	return 0, 0, fmt.Errorf("frame kind %d declares %d bytes, outside [%d, %d]", kind, n, frameBounds[kind].min, frameBounds[kind].max)
}

// readFrame reads one frame of one of the given kinds from a stream and
// returns its kind and body.
func readFrame(r io.Reader, kinds ...byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, kind, err := checkFrame(hdr[:], kinds)
	if err != nil {
		return 0, nil, err
	}
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		m := min(n, cap(buf))
		if _, err := io.ReadFull(r, buf[len(buf):m]); err != nil {
			return 0, nil, err
		}
		buf = buf[:m]
	}
	return kind, buf, nil
}

// readMessage reads one frame of the given kind and parses its body.
func readMessage[M any](r io.Reader, kind byte, parse func(body []byte) (M, error)) (M, error) {
	_, body, err := readFrame(r, kind)
	if err != nil {
		var zero M
		return zero, err
	}
	return parse(body)
}

// frame reads one whole frame of the given kind embedded in a section.
func (r *reader) frame(kind byte) []byte {
	hdr := r.take(5)
	if hdr == nil {
		return nil
	}
	n, _, err := checkFrame(hdr, []byte{kind})
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	return r.take(n)
}

// ---- messages -------------------------------------------------------------

func appendHello(dst []byte, h Hello) []byte {
	a := appender{dst}
	s := a.begin(frameHello)
	a.u32(h.Point)
	a.kind(h.Kind)
	a.u32(h.W)
	a.i64(h.StateEpoch)
	a.u32(h.Weight)
	a.u32(h.Shard)
	a.end(s)
	return a.b
}

func parseHello(body []byte) (Hello, error) {
	r := reader{b: body}
	h := Hello{Point: r.u32(), Kind: r.kind(), W: r.u32(), StateEpoch: r.i64(), Weight: r.u32(), Shard: r.u32()}
	return h, r.done()
}

func appendWelcome(dst []byte, w Welcome) []byte {
	a := appender{dst}
	s := a.begin(frameWelcome)
	a.u32(w.WindowN)
	a.u32(w.Points)
	a.i64(w.ResumeEpoch)
	a.i64(w.PointEpoch)
	a.end(s)
	return a.b
}

func parseWelcome(body []byte) (Welcome, error) {
	r := reader{b: body}
	w := Welcome{WindowN: r.u32(), Points: r.u32(), ResumeEpoch: r.i64(), PointEpoch: r.i64()}
	return w, r.done()
}

func appendUpload(dst []byte, u Upload) []byte {
	a := appender{dst}
	s := a.begin(frameUpload)
	a.u32(u.Point)
	a.i64(u.Epoch)
	a.flags(u.AggApplied, u.EnhApplied, u.Rebase)
	a.raw(u.Sketch)
	a.end(s)
	return a.b
}

func parseUpload(body []byte) (Upload, error) {
	r := reader{b: body}
	u := Upload{Point: r.u32(), Epoch: r.i64()}
	f := r.flags(3)
	u.AggApplied, u.EnhApplied, u.Rebase = f&1 != 0, f&2 != 0, f&4 != 0
	u.Sketch = r.rest()
	return u, r.err
}

// appendHeartbeat writes the liveness probe: the sender's id and its
// current epoch, never ingested.
func appendHeartbeat(dst []byte, point int, epoch int64) []byte {
	a := appender{dst}
	s := a.begin(frameHeartbeat)
	a.u32(point)
	a.i64(epoch)
	a.end(s)
	return a.b
}

func parseHeartbeat(body []byte) (point int, epoch int64, err error) {
	r := reader{b: body}
	point, epoch = r.u32(), r.i64()
	return point, epoch, r.done()
}

func appendPush(dst []byte, p Push) []byte {
	a := appender{dst}
	s := a.begin(framePush)
	a.i64(p.ForEpoch)
	a.u32(p.CovMerged)
	a.u32(p.CovExpected)
	a.flags(p.IntoCurrent)
	a.blob(p.Aggregate)
	a.raw(p.Enhancement)
	a.end(s)
	return a.b
}

func parsePush(body []byte) (Push, error) {
	r := reader{b: body}
	p := Push{ForEpoch: r.i64(), CovMerged: r.u32(), CovExpected: r.u32(), IntoCurrent: r.flags(1) != 0}
	p.Aggregate = r.blob()
	p.Enhancement = r.rest()
	return p, r.err
}
