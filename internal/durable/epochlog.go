// The epoch log is the package's time axis: where the checkpoint Store
// keeps only the latest state (bounded generations, overwritten every
// save), the Log is an append-only history of every (point, epoch) sketch
// blob the center accepted, so past windows can be re-joined long after
// the live window has trimmed them.
//
// On disk a log is a directory of segment files <name>.<seq>.seg:
//
//	segment header: magic "TQEL" | version 1 | 3 reserved zero bytes
//	per entry:      uint32 point | int64 epoch | uint32 blob len | blob |
//	                uint32 CRC32-IEEE(point..blob)
//
// (all integers little-endian). Entries are appended to the newest
// segment; at MaxSegmentBytes the segment is fsync'd, sealed and a new
// one started. Open rebuilds the in-memory (point, epoch) → offset index
// by scanning every segment; a torn tail on the final segment (the crash
// case) is truncated and appending continues, while corruption in a
// sealed segment is an error — sealed bytes were fsync'd, so damage
// there is real. Re-appending a cell overwrites its index entry; since
// sketch encodings are canonical, the duplicate bytes a crash-restart
// replay produces are identical and harmless.
//
// Retention is whole-segment: with RetainEpochs=N, a sealed segment is
// deleted once every epoch in it is ≤ lastEpoch-N; with MaxBytes,
// oldest sealed segments go until the log fits. Compaction runs in the
// background off Append (and on demand via Compact); queries against
// evicted cells simply find nothing, which the query layer reports as
// reduced coverage rather than an error.

package durable

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

var segMagic = [4]byte{'T', 'Q', 'E', 'L'}

const (
	segVersion     = 1
	segHeaderLen   = 8
	entryHeaderLen = 16 // uint32 point | int64 epoch | uint32 blob len
	entryCRCLen    = 4

	defaultMaxSegmentBytes = 4 << 20
)

// ErrLogClosed is returned by operations on a closed Log.
var ErrLogClosed = errors.New("durable: epoch log closed")

// LogConfig configures OpenLog.
type LogConfig struct {
	// Dir is the log directory (created, and probed for writability, on
	// open).
	Dir string
	// Name prefixes the segment files; defaults to "epochs". Same
	// character rules as checkpoint names.
	Name string
	// MaxSegmentBytes rolls to a new segment once the active one reaches
	// this size (default 4 MiB). Smaller segments mean finer-grained
	// retention.
	MaxSegmentBytes int64
	// RetainEpochs, when > 0, allows eviction of epochs ≤ lastEpoch-N.
	// 0 keeps everything.
	RetainEpochs int
	// MaxBytes, when > 0, evicts oldest sealed segments until the log
	// fits. 0 is unlimited.
	MaxBytes int64
}

// LogStats is a point-in-time snapshot of the log for health endpoints.
type LogStats struct {
	Segments int
	Entries  int
	Bytes    int64
	// FirstEpoch/LastEpoch span the retained entries; both zero (with
	// Entries == 0) for an empty log.
	FirstEpoch int64
	LastEpoch  int64
	Appends    uint64
	// Compactions counts completed compaction passes; CompactionErrors
	// counts segment deletions that failed (the segment is retried on the
	// next pass). LastCompaction is the wall time of the last pass (zero
	// if none ran yet).
	Compactions      uint64
	CompactionErrors uint64
	LastCompaction   time.Time
}

type cellKey struct {
	point int
	epoch int64
}

type entryRef struct {
	seq uint64
	off int64 // entry start offset within the segment
	n   int   // total entry length (header + blob + CRC)
}

type segMeta struct {
	seq      uint64
	bytes    int64
	entries  int
	minEpoch int64
	maxEpoch int64
	// keys lists every cell ever appended to this segment, so eviction
	// scrubs exactly its own index entries instead of scanning the whole
	// index (a cell re-appended into a later segment is skipped by the
	// seq check in dropSegmentLocked).
	keys []cellKey
}

// Log is the append-only (point, epoch) → sketch-blob store. All methods
// are safe for concurrent use; reads proceed concurrently with appends
// and block only for the brief metadata phase of a compaction.
type Log struct {
	cfg LogConfig

	mu         sync.RWMutex
	closed     bool
	compacting bool
	// index maps each epoch to its cells' newest entries. It is keyed
	// by epoch so one epoch's cells are one lookup away (Held).
	index     map[int64]epochCells
	cells     int        // cells in index
	segs      []*segMeta // ascending seq; the last one is active
	active    *os.File   // append handle for segs[len(segs)-1]
	lastEpoch int64
	haveEpoch bool

	appends          uint64
	compactions      uint64
	compactionErrors uint64
	lastCompaction   time.Time

	// rmu guards the lazily-opened per-segment read handles. *os.File
	// ReadAt is a pread, so the handles themselves need no locking.
	rmu     sync.Mutex
	readers map[uint64]*os.File

	wg sync.WaitGroup
}

// OpenLog opens (creating if needed) the epoch log in cfg.Dir, scanning
// every segment to rebuild the cell index. A torn tail on the final
// segment is truncated; corruption in a sealed segment is an error.
func OpenLog(cfg LogConfig) (*Log, error) {
	if cfg.Name == "" {
		cfg.Name = "epochs"
	}
	if strings.ContainsAny(cfg.Name, "/\\") {
		return nil, fmt.Errorf("durable: invalid log name %q", cfg.Name)
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = defaultMaxSegmentBytes
	}
	if err := ensureWritableDir(cfg.Dir); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:     cfg,
		index:   make(map[int64]epochCells),
		readers: make(map[uint64]*os.File),
	}
	seqs, err := l.segSeqs()
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		if err := l.scanSegmentFile(seq, final); err != nil {
			return nil, err
		}
	}
	// Resume appending into the last segment if it still has room;
	// otherwise (or when the directory is fresh) start a new one.
	next := uint64(1)
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		if last.bytes < cfg.MaxSegmentBytes {
			if err := l.openActive(last.seq); err != nil {
				return nil, err
			}
			return l, nil
		}
		next = last.seq + 1
	}
	if err := l.startSegment(next); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.cfg.Dir, fmt.Sprintf("%s.%016d.seg", l.cfg.Name, seq))
}

// segSeqs lists the on-disk segment sequence numbers, ascending.
func (l *Log) segSeqs() ([]uint64, error) {
	entries, err := os.ReadDir(l.cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan log dir: %w", err)
	}
	prefix := l.cfg.Name + "."
	var seqs []uint64
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, prefix) || !strings.HasSuffix(n, ".seg") {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(n, prefix), ".seg")
		s, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanSegmentFile indexes one segment. On the final segment a parse
// error marks the crash boundary: everything before it is kept, the file
// is truncated there, and the error is swallowed. Earlier segments were
// sealed with an fsync, so any damage is reported.
func (l *Log) scanSegmentFile(seq uint64, final bool) error {
	path := l.segPath(seq)
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("durable: read segment: %w", err)
	}
	meta := &segMeta{seq: seq}
	good, scanErr := scanSegment(b, func(off int64, point int, epoch int64, blob []byte) {
		l.setRefLocked(point, epoch, entryRef{
			seq: seq, off: off, n: entryHeaderLen + len(blob) + entryCRCLen,
		})
		l.noteCell(meta, point, epoch)
	})
	if scanErr != nil {
		if !final {
			return fmt.Errorf("durable: segment %s: %w", path, scanErr)
		}
		if err := os.Truncate(path, good); err != nil {
			return fmt.Errorf("durable: truncate torn segment %s: %w", path, err)
		}
		b = b[:good]
	}
	// A final segment torn inside its 8-byte header parses to zero bytes;
	// dropping it entirely lets startSegment rewrite it from scratch.
	if len(b) == 0 {
		os.Remove(path)
		return nil
	}
	meta.bytes = int64(len(b))
	l.segs = append(l.segs, meta)
	return nil
}

// epochCells lists one epoch's indexed cells in ascending point order:
// a few dozen at most, searched in place.
type epochCells []cellRef

type cellRef struct {
	point int
	ref   entryRef
}

// find returns point's position in c, or where it would be inserted.
func (c epochCells) find(point int) (int, bool) {
	lo, hi := 0, len(c)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c[m].point < point {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c) && c[lo].point == point
}

// refLocked returns the index entry for (point, epoch).
func (l *Log) refLocked(point int, epoch int64) (entryRef, bool) {
	cells := l.index[epoch]
	i, ok := cells.find(point)
	if !ok {
		return entryRef{}, false
	}
	return cells[i].ref, true
}

// setRefLocked points the index at a cell's newest entry.
func (l *Log) setRefLocked(point int, epoch int64, ref entryRef) {
	cells := l.index[epoch]
	i, ok := cells.find(point)
	if ok {
		cells[i].ref = ref
		return
	}
	l.index[epoch] = slices.Insert(cells, i, cellRef{point, ref})
	l.cells++
}

func (l *Log) noteCell(meta *segMeta, point int, epoch int64) {
	if meta.entries == 0 || epoch < meta.minEpoch {
		meta.minEpoch = epoch
	}
	if meta.entries == 0 || epoch > meta.maxEpoch {
		meta.maxEpoch = epoch
	}
	meta.entries++
	meta.keys = append(meta.keys, cellKey{point, epoch})
	if !l.haveEpoch || epoch > l.lastEpoch {
		l.lastEpoch = epoch
		l.haveEpoch = true
	}
}

// openActive opens the append handle for an existing segment.
func (l *Log) openActive(seq uint64) error {
	f, err := os.OpenFile(l.segPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open active segment: %w", err)
	}
	l.active = f
	return nil
}

// startSegment creates segment seq, writes its header and makes it the
// active segment.
func (l *Log) startSegment(seq uint64) error {
	if err := l.openActive(seq); err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = segVersion
	if _, err := l.active.Write(hdr[:]); err != nil {
		l.active.Close()
		l.active = nil
		return fmt.Errorf("durable: write segment header: %w", err)
	}
	l.segs = append(l.segs, &segMeta{seq: seq, bytes: segHeaderLen})
	syncDir(l.cfg.Dir)
	return nil
}

// encodeEntry builds the on-disk bytes of one entry.
func encodeEntry(point int, epoch int64, blob []byte) []byte {
	buf := make([]byte, entryHeaderLen+len(blob)+entryCRCLen)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(point))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(epoch))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(blob)))
	copy(buf[entryHeaderLen:], blob)
	crc := crc32.ChecksumIEEE(buf[:entryHeaderLen+len(blob)])
	binary.LittleEndian.PutUint32(buf[entryHeaderLen+len(blob):], crc)
	return buf
}

// scanSegment parses a segment image, calling visit (may be nil) for
// each complete CRC-valid entry. It returns the offset just past the
// last valid entry and, when the image ends anywhere but a clean entry
// boundary, an error describing the first defect. It never panics on
// hostile input (see FuzzSegmentDecode).
func scanSegment(b []byte, visit func(off int64, point int, epoch int64, blob []byte)) (int64, error) {
	if len(b) < segHeaderLen {
		return 0, fmt.Errorf("durable: segment shorter than header (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != segMagic {
		return 0, fmt.Errorf("durable: bad segment magic %q", b[:4])
	}
	if b[4] != segVersion {
		return 0, fmt.Errorf("durable: unsupported segment version %d", b[4])
	}
	if b[5] != 0 || b[6] != 0 || b[7] != 0 {
		return 0, errors.New("durable: nonzero reserved segment header bytes")
	}
	off := int64(segHeaderLen)
	for int(off) < len(b) {
		rest := b[off:]
		if len(rest) < entryHeaderLen+entryCRCLen {
			return off, fmt.Errorf("durable: truncated entry header at offset %d", off)
		}
		point := int(binary.LittleEndian.Uint32(rest[0:4]))
		epoch := int64(binary.LittleEndian.Uint64(rest[4:12]))
		blen := binary.LittleEndian.Uint32(rest[12:16])
		if blen > maxSectionLen {
			return off, fmt.Errorf("durable: implausible blob length %d at offset %d", blen, off)
		}
		total := entryHeaderLen + int(blen) + entryCRCLen
		if len(rest) < total {
			return off, fmt.Errorf("durable: truncated entry at offset %d", off)
		}
		got := crc32.ChecksumIEEE(rest[:entryHeaderLen+int(blen)])
		want := binary.LittleEndian.Uint32(rest[entryHeaderLen+int(blen) : total])
		if got != want {
			return off, fmt.Errorf("durable: entry CRC mismatch at offset %d (%08x != %08x)", off, got, want)
		}
		if visit != nil {
			visit(off, point, epoch, rest[entryHeaderLen:entryHeaderLen+int(blen)])
		}
		off += int64(total)
	}
	return off, nil
}

// Append records blob as the cell (point, epoch), rolling and fsyncing
// the segment when it reaches MaxSegmentBytes and kicking off background
// compaction when retention allows eviction. Appends are not fsync'd
// individually — a crash can cost the unsynced tail of the active
// segment, which the torn-tail truncation on reopen absorbs.
func (l *Log) Append(point int, epoch int64, blob []byte) error {
	if point < 0 || int64(point) > int64(^uint32(0)) {
		return fmt.Errorf("durable: point id %d out of range", point)
	}
	if len(blob) > maxSectionLen {
		return fmt.Errorf("durable: blob too large (%d bytes)", len(blob))
	}
	buf := encodeEntry(point, epoch, blob)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	meta := l.segs[len(l.segs)-1]
	if _, err := l.active.Write(buf); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	l.setRefLocked(point, epoch, entryRef{seq: meta.seq, off: meta.bytes, n: len(buf)})
	meta.bytes += int64(len(buf))
	l.noteCell(meta, point, epoch)
	l.appends++
	if meta.bytes >= l.cfg.MaxSegmentBytes {
		if err := l.rollLocked(); err != nil {
			return err
		}
	}
	if l.needsCompactLocked() && !l.compacting {
		l.compacting = true
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.mu.Lock()
			defer l.mu.Unlock()
			l.compacting = false
			if !l.closed {
				_ = l.compactLocked()
			}
		}()
	}
	return nil
}

// rollLocked seals the active segment (fsync + close) and starts the
// next one.
func (l *Log) rollLocked() error {
	meta := l.segs[len(l.segs)-1]
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("durable: seal segment: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("durable: seal segment: %w", err)
	}
	l.active = nil
	return l.startSegment(meta.seq + 1)
}

// Sync flushes the active segment to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.active.Sync()
}

// needsCompactLocked reports whether a compaction pass would delete at
// least one segment right now.
func (l *Log) needsCompactLocked() bool {
	if len(l.segs) < 2 {
		return false
	}
	if cutoff, ok := l.retentionCutoffLocked(); ok {
		for _, m := range l.segs[:len(l.segs)-1] {
			if m.entries > 0 && m.maxEpoch <= cutoff {
				return true
			}
		}
	}
	if l.cfg.MaxBytes > 0 {
		var total int64
		for _, m := range l.segs {
			total += m.bytes
		}
		if total > l.cfg.MaxBytes {
			return true
		}
	}
	return false
}

func (l *Log) retentionCutoffLocked() (int64, bool) {
	if l.cfg.RetainEpochs <= 0 || !l.haveEpoch {
		return 0, false
	}
	return l.lastEpoch - int64(l.cfg.RetainEpochs), true
}

// Compact runs one synchronous compaction pass: sealed segments whose
// every epoch falls behind the retention cutoff are deleted, then oldest
// sealed segments go until the log fits MaxBytes. The active segment is
// never deleted. Failed deletions count in CompactionErrors and are
// retried on the next pass.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLogClosed
	}
	return l.compactLocked()
}

func (l *Log) compactLocked() error {
	var firstErr error
	cutoff, haveCutoff := l.retentionCutoffLocked()
	keep := l.segs[:0:0]
	sealed := l.segs[:len(l.segs)-1]
	for i, m := range sealed {
		evict := haveCutoff && m.entries > 0 && m.maxEpoch <= cutoff
		// Header-only sealed segments (possible after a roll landing
		// exactly at the boundary) hold nothing worth keeping.
		evict = evict || m.entries == 0
		if !evict {
			keep = append(keep, sealed[i])
			continue
		}
		if err := l.dropSegmentLocked(m); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			keep = append(keep, sealed[i])
			continue
		}
	}
	// MaxBytes: evict oldest sealed survivors until the log fits.
	if l.cfg.MaxBytes > 0 {
		total := l.segs[len(l.segs)-1].bytes
		for _, m := range keep {
			total += m.bytes
		}
		for len(keep) > 0 && total > l.cfg.MaxBytes {
			m := keep[0]
			if err := l.dropSegmentLocked(m); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			total -= m.bytes
			keep = keep[1:]
		}
	}
	l.segs = append(keep, l.segs[len(l.segs)-1])
	l.compactions++
	l.lastCompaction = time.Now()
	return firstErr
}

// dropSegmentLocked deletes one sealed segment and scrubs its cells from
// the index via the segment's own key list — O(cells in segment), not
// O(whole index). A key whose live index entry points at a newer segment
// (the cell was re-appended) is left alone.
func (l *Log) dropSegmentLocked(m *segMeta) error {
	if err := os.Remove(l.segPath(m.seq)); err != nil && !os.IsNotExist(err) {
		l.compactionErrors++
		return fmt.Errorf("durable: evict segment %d: %w", m.seq, err)
	}
	syncDir(l.cfg.Dir)
	l.rmu.Lock()
	if f, ok := l.readers[m.seq]; ok {
		f.Close()
		delete(l.readers, m.seq)
	}
	l.rmu.Unlock()
	for _, k := range m.keys {
		cells := l.index[k.epoch]
		if i, ok := cells.find(k.point); ok && cells[i].ref.seq == m.seq {
			l.cells--
			if cells = slices.Delete(cells, i, i+1); len(cells) == 0 {
				delete(l.index, k.epoch)
			} else {
				l.index[k.epoch] = cells
			}
		}
	}
	m.keys = nil
	return nil
}

// readBuf is a pooled scratch buffer for segment reads. Pooling keeps
// the per-cell read path at one allocation (the caller-owned copy of the
// blob) instead of one entry-sized buffer per Get.
type readBuf struct{ b []byte }

var readBufPool = sync.Pool{New: func() any { return new(readBuf) }}

func getReadBuf(n int) *readBuf {
	rb := readBufPool.Get().(*readBuf)
	if cap(rb.b) < n {
		rb.b = make([]byte, n)
	}
	rb.b = rb.b[:n]
	return rb
}

func putReadBuf(rb *readBuf) { readBufPool.Put(rb) }

// verifyEntry checks one raw entry image against its index ref: header
// blob length consistent with the ref, CRC valid. On success it returns
// the blob sub-slice of buf (borrowed — valid only while buf is).
func verifyEntry(buf []byte, ref entryRef, point int, epoch int64) ([]byte, error) {
	blen := binary.LittleEndian.Uint32(buf[12:16])
	if int(blen) != ref.n-entryHeaderLen-entryCRCLen {
		return nil, fmt.Errorf("durable: cell (%d,%d) length mismatch", point, epoch)
	}
	got := crc32.ChecksumIEEE(buf[:entryHeaderLen+int(blen)])
	want := binary.LittleEndian.Uint32(buf[entryHeaderLen+int(blen):])
	if got != want {
		return nil, fmt.Errorf("durable: cell (%d,%d) CRC mismatch", point, epoch)
	}
	return buf[entryHeaderLen : entryHeaderLen+int(blen) : entryHeaderLen+int(blen)], nil
}

// Get returns the blob stored for (point, epoch). The second return is
// false when the cell was never appended or has been evicted — that is
// the coverage signal, not an error. The entry CRC is re-verified on
// every read. The entry is read straight into one new buffer, which the
// returned blob aliases. Only the read holds the log's read lock; the CRC
// is verified after it.
func (l *Log) Get(point int, epoch int64) ([]byte, bool, error) {
	b, ref, ok, err := l.readEntry(point, epoch)
	if err != nil || !ok {
		return nil, false, err
	}
	blob, err := verifyEntry(b, ref, point, epoch)
	if err != nil {
		return nil, false, err
	}
	return blob, true, nil
}

// readEntry reads the raw entry image of (point, epoch) into a new buffer.
func (l *Log) readEntry(point int, epoch int64) ([]byte, entryRef, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, entryRef{}, false, ErrLogClosed
	}
	ref, ok := l.refLocked(point, epoch)
	if !ok {
		return nil, ref, false, nil
	}
	f, err := l.reader(ref.seq)
	if err != nil {
		return nil, ref, false, err
	}
	b := make([]byte, ref.n)
	if _, err := f.ReadAt(b, ref.off); err != nil {
		return nil, ref, false, fmt.Errorf("durable: read cell (%d,%d): %w", point, epoch, err)
	}
	return b, ref, true, nil
}

// cellHit is one resolved cell of a GetEpoch read, ordered for a
// sequential pass: ascending (segment, offset). entry is its raw image
// once read.
type cellHit struct {
	ref   entryRef
	point int
	entry []byte
}

// readChunkBytes caps how much of a segment one pooled read pulls in;
// runs of cells whose combined span exceeds it are split into multiple
// sequential reads.
const readChunkBytes = 256 << 10

// GetEpoch reads every retained cell of one epoch across points, calling
// visit once per cell found. The epoch's cells are read in (segment,
// offset) order — one coalesced sequential read per segment run through
// pooled buffers — so a replay pays O(segments) reads instead of one
// syscall + allocation per cell.
//
// Only the index lookup and the reads hold the log's read lock. CRCs are
// verified and visit runs after it is released, so appends and
// compaction proceed while visit decodes; the bytes were read into
// buffers private to this call, which a compaction dropping their
// segment cannot touch, and visit may call back into the Log. The blob
// passed to visit is borrowed: it is valid only for the duration of the
// call and must not be retained or modified. Missing cells (never
// appended, or evicted) are skipped silently — that is the coverage
// signal. A non-nil error from visit aborts the pass and is returned
// verbatim.
func (l *Log) GetEpoch(epoch int64, points []int, visit func(point int, blob []byte) error) error {
	hits, bufs, err := l.readEpoch(epoch, points)
	defer func() {
		for _, rb := range bufs {
			putReadBuf(rb)
		}
	}()
	if err != nil {
		return err
	}
	for _, h := range hits {
		blob, err := verifyEntry(h.entry, h.ref, h.point, epoch)
		if err == nil {
			err = visit(h.point, blob)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readEpoch is GetEpoch's locked phase: it resolves the epoch's index
// entry to refs in (segment, offset) order and reads each hit's entry
// into pooled buffers, returned even on error so the caller can recycle
// them.
func (l *Log) readEpoch(epoch int64, points []int) ([]cellHit, []*readBuf, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return nil, nil, ErrLogClosed
	}
	cells := l.index[epoch]
	hits := make([]cellHit, 0, len(points))
	for _, pt := range points {
		if i, ok := cells.find(pt); ok {
			hits = append(hits, cellHit{ref: cells[i].ref, point: pt})
		}
	}
	slices.SortFunc(hits, func(a, b cellHit) int {
		return cmp.Or(cmp.Compare(a.ref.seq, b.ref.seq), cmp.Compare(a.ref.off, b.ref.off))
	})
	var bufs []*readBuf
	for start := 0; start < len(hits); {
		// One coalesced read: same segment, span under the chunk cap.
		seq, base := hits[start].ref.seq, hits[start].ref.off
		spanEnd := base + int64(hits[start].ref.n)
		end := start + 1
		for ; end < len(hits) && hits[end].ref.seq == seq; end++ {
			next := hits[end].ref.off + int64(hits[end].ref.n)
			if next-base > readChunkBytes {
				break
			}
			spanEnd = max(spanEnd, next)
		}
		f, err := l.reader(seq)
		if err != nil {
			return nil, bufs, err
		}
		rb := getReadBuf(int(spanEnd - base))
		bufs = append(bufs, rb)
		if _, err := f.ReadAt(rb.b, base); err != nil {
			return nil, bufs, fmt.Errorf("durable: batched read segment %d: %w", seq, err)
		}
		for i := start; i < end; i++ {
			h := &hits[i]
			h.entry = rb.b[h.ref.off-base : h.ref.off-base+int64(h.ref.n)]
		}
		start = end
	}
	return hits, bufs, nil
}

// Has reports whether the cell (point, epoch) is retained, without
// reading it.
func (l *Log) Has(point int, epoch int64) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	_, ok := l.refLocked(point, epoch)
	return ok
}

// Held reports which of points hold a retained cell in each epoch of
// [first, last]: held[i] lists, in the order of points, those whose cell
// for epoch first+i is retained. It takes the read lock once for the
// whole span, so a caller sees one consistent index.
func (l *Log) Held(first, last int64, points []int) [][]int {
	if first > last {
		return nil
	}
	held := make([][]int, last-first+1)
	buf := make([]int, 0, len(held)*len(points))
	l.mu.RLock()
	defer l.mu.RUnlock()
	for i := range held {
		cells := l.index[first+int64(i)]
		start := len(buf)
		for _, id := range points {
			if _, ok := cells.find(id); ok {
				buf = append(buf, id)
			}
		}
		held[i] = buf[start:len(buf):len(buf)]
	}
	return held
}

// reader returns the lazily-opened read handle for a segment. Called
// with l.mu held (read or write), which pins the segment against
// compaction.
func (l *Log) reader(seq uint64) (*os.File, error) {
	l.rmu.Lock()
	defer l.rmu.Unlock()
	if f, ok := l.readers[seq]; ok {
		return f, nil
	}
	f, err := os.Open(l.segPath(seq))
	if err != nil {
		return nil, fmt.Errorf("durable: open segment for read: %w", err)
	}
	l.readers[seq] = f
	return f, nil
}

// Span returns the epoch range [first, last] currently retained; ok is
// false for an empty log.
func (l *Log) Span() (first, last int64, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.spanLocked()
}

// SpanOf returns the epoch range [first, last] from the oldest to the
// newest retained epoch that holds a cell of any of points; ok is false
// when none does. Span can open on an epoch whose only retained cells are
// of other points: retention is whole-segment, so a cell appended late
// into the next epoch's segment outlives its epoch's other cells. The
// ends are walked an epoch at a time, so the walk is long only when such
// an end is followed by a run of epochs the log holds nothing for.
func (l *Log) SpanOf(points []int) (first, last int64, ok bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	holds := func(epoch int64) bool {
		for _, id := range points {
			if _, ok := l.index[epoch].find(id); ok {
				return true
			}
		}
		return false
	}
	first, last, ok = l.spanLocked()
	for ; ok && first <= last && !holds(first); first++ {
	}
	for ; ok && first <= last && !holds(last); last-- {
	}
	if !ok || first > last {
		return 0, 0, false
	}
	return first, last, true
}

func (l *Log) spanLocked() (first, last int64, ok bool) {
	for _, m := range l.segs {
		if m.entries == 0 {
			continue
		}
		if !ok || m.minEpoch < first {
			first = m.minEpoch
		}
		if !ok || m.maxEpoch > last {
			last = m.maxEpoch
		}
		ok = true
	}
	return first, last, ok
}

// Stats snapshots the log for health reporting.
func (l *Log) Stats() LogStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := LogStats{
		Segments:         len(l.segs),
		Entries:          l.cells,
		Appends:          l.appends,
		Compactions:      l.compactions,
		CompactionErrors: l.compactionErrors,
		LastCompaction:   l.lastCompaction,
	}
	for _, m := range l.segs {
		st.Bytes += m.bytes
	}
	st.FirstEpoch, st.LastEpoch, _ = l.spanLocked()
	return st
}

// Close flushes and closes the log. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.active != nil {
		if serr := l.active.Sync(); serr != nil {
			err = serr
		}
		if cerr := l.active.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.rmu.Lock()
	for seq, f := range l.readers {
		f.Close()
		delete(l.readers, seq)
	}
	l.rmu.Unlock()
	return err
}

// ensureWritableDir creates dir if missing and fails fast when it cannot
// actually host files — the startup-time replacement for discovering an
// unusable -checkpoint-dir/-store-dir at the first epoch boundary.
func ensureWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: create dir %q: %w", dir, err)
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("durable: directory %q is not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}
