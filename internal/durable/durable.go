// Package durable is the storage layer under the protocol's state. It has
// two faces over one directory discipline: the append-only epoch Log (see
// epochlog.go) keeps the full (point, epoch) → sketch history that
// retrospective T-queries replay, while the checkpoint Store below is the
// thin latest-state view — a bounded-generation snapshot used for crash
// recovery by both ends (the center's window store, the points' sketch
// state and retransmit history).
//
// A checkpoint is a list of named byte sections written as one file:
//
//	magic "TQCK" | version 1 | uint32 section count | uint32 header CRC
//	per section: uint32 name len | name | uint32 data len | data |
//	             uint32 CRC32-IEEE(name + data)
//
// (all integers little-endian; the header CRC covers magic through the
// section count). Writes are atomic — encode to a temp file in the same
// directory, fsync, rename over the final name, fsync the directory — so a
// crash at any byte offset leaves either the previous generation or a
// complete new one, never a half-written current file. The store keeps the
// last two generations; Load falls back to the older one when the newest
// fails its CRC (the torn-write case: a rename that survived the crash but
// whose data blocks did not).
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoCheckpoint is returned by Load when the store holds no readable
// generation at all (fresh deployment, or every retained file corrupt).
var ErrNoCheckpoint = errors.New("durable: no checkpoint")

// ErrCrashed is returned by CrashWriter once its byte budget is spent,
// simulating a process kill mid-checkpoint.
var ErrCrashed = errors.New("durable: simulated crash")

var magic = [4]byte{'T', 'Q', 'C', 'K'}

const (
	version = 1
	// maxSectionLen bounds name and data lengths on decode so a corrupt
	// length prefix cannot drive an allocation bomb.
	maxSectionLen = 1 << 30
	// keepGenerations is how many checkpoint files the store retains: the
	// newest plus one fallback for the torn-write case.
	keepGenerations = 2
)

// Section is one named payload of a checkpoint. Names discriminate the
// parts of a store's state (e.g. "state", "meta", "uploads") so formats can
// grow sections without renumbering.
type Section struct {
	Name string
	Data []byte
}

// WriteSyncer is the sink a checkpoint is encoded to: a file, or a
// fault-injecting wrapper in tests.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// CrashWriter wraps a WriteSyncer and simulates a crash after Limit bytes:
// the write that crosses the limit is truncated at the boundary and every
// operation after it (including Sync) fails with ErrCrashed. It lets tests
// kill a checkpoint at an arbitrary byte offset.
type CrashWriter struct {
	W       WriteSyncer
	Limit   int
	written int
	crashed bool
}

// Write implements io.Writer, truncating at the crash offset.
func (c *CrashWriter) Write(p []byte) (int, error) {
	if c.crashed {
		return 0, ErrCrashed
	}
	if c.written+len(p) > c.Limit {
		keep := c.Limit - c.written
		if keep > 0 {
			if n, err := c.W.Write(p[:keep]); err != nil {
				return n, err
			}
		}
		c.written = c.Limit
		c.crashed = true
		return keep, ErrCrashed
	}
	n, err := c.W.Write(p)
	c.written += n
	return n, err
}

// Sync implements WriteSyncer; a crashed writer never syncs.
func (c *CrashWriter) Sync() error {
	if c.crashed {
		return ErrCrashed
	}
	return c.W.Sync()
}

// Encode writes the checkpoint container for the given sections. The
// header is 13 bytes — magic (4), version (1), section count (4), CRC of
// the preceding 9 (4) — followed by the sections.
func Encode(w io.Writer, sections []Section) error {
	var buf [13]byte
	copy(buf[:4], magic[:])
	buf[4] = version
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(sections)))
	binary.LittleEndian.PutUint32(buf[9:13], crc32.ChecksumIEEE(buf[:9]))
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("durable: write header: %w", err)
	}
	var lenBuf [4]byte
	for _, s := range sections {
		if len(s.Name) > maxSectionLen || len(s.Data) > maxSectionLen {
			return fmt.Errorf("durable: section %q too large", s.Name)
		}
		crc := crc32.NewIEEE()
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s.Name)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, s.Name); err != nil {
			return err
		}
		crc.Write([]byte(s.Name))
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s.Data)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		crc.Write(s.Data)
		binary.LittleEndian.PutUint32(lenBuf[:], crc.Sum32())
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads a checkpoint container, verifying the header and every
// section CRC. Any mismatch, truncation or implausible length is an error;
// it never panics on hostile input (see FuzzDecode).
func Decode(r io.Reader) ([]Section, error) {
	var buf [13]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("durable: read header: %w", err)
	}
	if [4]byte(buf[:4]) != magic {
		return nil, fmt.Errorf("durable: bad magic %q", buf[:4])
	}
	if buf[4] != version {
		return nil, fmt.Errorf("durable: unsupported checkpoint version %d", buf[4])
	}
	if got, want := crc32.ChecksumIEEE(buf[:9]), binary.LittleEndian.Uint32(buf[9:13]); got != want {
		return nil, fmt.Errorf("durable: header CRC mismatch (%08x != %08x)", got, want)
	}
	count := binary.LittleEndian.Uint32(buf[5:9])
	if count > 1<<20 {
		return nil, fmt.Errorf("durable: implausible section count %d", count)
	}
	var lenBuf [4]byte
	readLen := func() (uint32, error) {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return 0, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > maxSectionLen {
			return 0, fmt.Errorf("durable: implausible section length %d", n)
		}
		return n, nil
	}
	sections := make([]Section, 0, count)
	for i := uint32(0); i < count; i++ {
		nameLen, err := readLen()
		if err != nil {
			return nil, fmt.Errorf("durable: section %d name length: %w", i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("durable: section %d name: %w", i, err)
		}
		dataLen, err := readLen()
		if err != nil {
			return nil, fmt.Errorf("durable: section %d data length: %w", i, err)
		}
		data := make([]byte, dataLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("durable: section %d data: %w", i, err)
		}
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("durable: section %d crc: %w", i, err)
		}
		crc := crc32.NewIEEE()
		crc.Write(name)
		crc.Write(data)
		if got, want := crc.Sum32(), binary.LittleEndian.Uint32(lenBuf[:]); got != want {
			return nil, fmt.Errorf("durable: section %q CRC mismatch (%08x != %08x)", name, got, want)
		}
		sections = append(sections, Section{Name: string(name), Data: data})
	}
	return sections, nil
}

// Store manages the generations of one named checkpoint in a directory.
// File names are <name>.<generation>.ckpt with a zero-padded generation
// counter that survives restarts (Open resumes at the highest on disk).
type Store struct {
	dir  string
	name string

	// WrapWriter, if set, wraps the file WriteSyncer every Save encodes to;
	// tests inject CrashWriter here to kill a write mid-checkpoint.
	WrapWriter func(WriteSyncer) WriteSyncer

	mu  sync.Mutex
	gen uint64 // highest generation written or found on disk
}

// Open prepares a checkpoint store in dir (created if missing) and scans
// for existing generations so numbering continues across restarts.
func Open(dir, name string) (*Store, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("durable: invalid checkpoint name %q", name)
	}
	// Probe writability up front: a dir that cannot be created or written
	// must fail at startup with a clear error, not at the first epoch
	// boundary when the first Save runs.
	if err := ensureWritableDir(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, name: name}
	gens, err := s.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		s.gen = gens[len(gens)-1]
	}
	return s, nil
}

// GenPath returns the file path of one generation (for tests that corrupt
// or inspect specific files).
func (s *Store) GenPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%016d.ckpt", s.name, gen))
}

// LatestGen returns the newest generation written or found (0 = none).
func (s *Store) LatestGen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// generations lists the on-disk generation numbers, ascending.
func (s *Store) generations() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scan checkpoint dir: %w", err)
	}
	prefix := s.name + "."
	var gens []uint64
	for _, e := range entries {
		n := e.Name()
		if !strings.HasPrefix(n, prefix) || !strings.HasSuffix(n, ".ckpt") {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(n, prefix), ".ckpt")
		g, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save writes the sections as a new generation: encode to a temp file,
// fsync, rename into place, fsync the directory, then prune generations
// beyond the retained two. A failure at any step (including an injected
// crash) leaves the previous generations untouched.
func (s *Store) Save(sections []Section) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen + 1
	final := s.GenPath(gen)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create temp checkpoint: %w", err)
	}
	var ws WriteSyncer = f
	if s.WrapWriter != nil {
		ws = s.WrapWriter(f)
	}
	err = Encode(ws, sections)
	if err == nil {
		err = ws.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: write checkpoint gen %d: %w", gen, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: publish checkpoint gen %d: %w", gen, err)
	}
	syncDir(s.dir)
	s.gen = gen
	// Prune: keep the newest keepGenerations files.
	if gens, err := s.generations(); err == nil && len(gens) > keepGenerations {
		for _, g := range gens[:len(gens)-keepGenerations] {
			os.Remove(s.GenPath(g))
		}
	}
	return nil
}

// Load reads the newest decodable generation, falling back to the older one
// when the newest is corrupt (torn write). It returns the sections and the
// generation they came from, or ErrNoCheckpoint when nothing is readable.
func (s *Store) Load() ([]Section, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens, err := s.generations()
	if err != nil {
		return nil, 0, err
	}
	var lastErr error
	for i := len(gens) - 1; i >= 0; i-- {
		f, err := os.Open(s.GenPath(gens[i]))
		if err != nil {
			lastErr = err
			continue
		}
		sections, err := Decode(f)
		f.Close()
		if err != nil {
			lastErr = fmt.Errorf("gen %d: %w", gens[i], err)
			continue
		}
		return sections, gens[i], nil
	}
	if lastErr != nil {
		return nil, 0, fmt.Errorf("%w (%v)", ErrNoCheckpoint, lastErr)
	}
	return nil, 0, ErrNoCheckpoint
}

// syncDir fsyncs a directory so a rename is durable; best-effort on
// platforms where directories cannot be opened for sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
