package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
)

// Point-side durability: each epoch-boundary checkpoint is a durable
// container (internal/durable) with three sections.
//
//	"state"   — the TQST2 snapshot (epoch + B/C/C' sketches, state.go)
//	"meta"    — the degradation accounting RestoreSnapshot cannot carry:
//	            push-lineage flags, staged/current coverage, topology,
//	            and the rebase marker (fixed-width little-endian)
//	"uploads" — the retransmit buffer, sent history included, so a
//	            restarted point can replay epochs a restarted center lost
//
// The TQST2 snapshot alone (the -state flag) restores sketches but
// assumes a healthy lineage; meta makes the restore honest — a re-pushed
// aggregate is applied or rejected exactly as the pre-crash process would
// have, and queries report the coverage the window really has.

const (
	pointMetaVersion    = 1
	pointMetaBytes      = 34
	pointUploadsVersion = 1
)

// saveCheckpointLocked writes one checkpoint generation. Failures are
// recorded (LastCheckpointErr), not returned: a broken disk must not stop
// the epoch clock. Callers must hold c.mu.
func (c *PointClient) saveCheckpointLocked() {
	if c.ckpt == nil {
		return
	}
	sections, err := c.checkpointSectionsLocked()
	if err == nil {
		err = c.ckpt.Save(sections)
	}
	c.errMu.Lock()
	c.ckptErr = err
	c.errMu.Unlock()
	if err == nil {
		c.checkpoints.Add(1)
	}
}

func (c *PointClient) checkpointSectionsLocked() ([]durable.Section, error) {
	var state bytes.Buffer
	if err := c.eng.saveState(&state); err != nil {
		return nil, err
	}

	meta := c.eng.meta()
	mbuf := make([]byte, 0, pointMetaBytes)
	mbuf = append(mbuf, pointMetaVersion)
	mbuf = binary.LittleEndian.AppendUint32(mbuf, uint32(c.up.points))
	mbuf = binary.LittleEndian.AppendUint32(mbuf, uint32(c.up.windowN))
	var flags byte
	if meta.AggApplied {
		flags |= 1 << 0
	}
	if meta.AggAppliedPrev {
		flags |= 1 << 1
	}
	if meta.EnhApplied {
		flags |= 1 << 2
	}
	if meta.Backfilled {
		flags |= 1 << 3
	}
	if c.needRebase {
		flags |= 1 << 4
	}
	mbuf = append(mbuf, flags)
	mbuf = binary.LittleEndian.AppendUint64(mbuf, uint64(int64(meta.CovMerged)))
	mbuf = binary.LittleEndian.AppendUint64(mbuf, uint64(int64(meta.Cov.EpochsMerged)))
	mbuf = binary.LittleEndian.AppendUint64(mbuf, uint64(int64(meta.Cov.EpochsExpected)))

	ubuf := make([]byte, 0, 64)
	ubuf = append(ubuf, pointUploadsVersion)
	ubuf = binary.LittleEndian.AppendUint32(ubuf, uint32(len(c.up.pending)))
	for _, p := range c.up.pending {
		ubuf = binary.LittleEndian.AppendUint64(ubuf, uint64(p.up.Epoch))
		var f byte
		if p.attempted {
			f |= 1 << 0
		}
		if p.sent {
			f |= 1 << 1
		}
		if p.up.AggApplied {
			f |= 1 << 2
		}
		if p.up.EnhApplied {
			f |= 1 << 3
		}
		if p.up.Rebase {
			f |= 1 << 4
		}
		ubuf = append(ubuf, f)
		ubuf = binary.LittleEndian.AppendUint32(ubuf, uint32(len(p.up.Sketch)))
		ubuf = append(ubuf, p.up.Sketch...)
	}

	return []durable.Section{
		{Name: "state", Data: state.Bytes()},
		{Name: "meta", Data: mbuf},
		{Name: "uploads", Data: ubuf},
	}, nil
}

// restoreCheckpoint rebuilds the point from a loaded checkpoint: sketches
// and epoch first (loadState), then the honest accounting (RestoreMeta
// overriding loadState's healthy-lineage assumption), then the retransmit
// buffer. Every section is parsed before anything is restored, so a
// malformed checkpoint fails DialPoint without touching the point. Called
// from DialPoint before the first connect.
func (c *PointClient) restoreCheckpoint(sections []durable.Section) error {
	bySection := make(map[string][]byte, len(sections))
	for _, sec := range sections {
		bySection[sec.Name] = sec.Data
	}
	state, ok := bySection["state"]
	if !ok {
		return fmt.Errorf("checkpoint has no state section")
	}

	mbuf, ok := bySection["meta"]
	if !ok {
		return fmt.Errorf("checkpoint has no meta section")
	}
	if len(mbuf) != pointMetaBytes {
		return fmt.Errorf("malformed meta section (%d bytes, want %d)", len(mbuf), pointMetaBytes)
	}
	if mbuf[0] != pointMetaVersion {
		return fmt.Errorf("meta section version %d, want %d", mbuf[0], pointMetaVersion)
	}
	points := int(binary.LittleEndian.Uint32(mbuf[1:5]))
	windowN := int(binary.LittleEndian.Uint32(mbuf[5:9]))
	flags := mbuf[9]
	meta := core.PointMeta{
		TopoPoints:     points,
		TopoN:          windowN,
		AggApplied:     flags&(1<<0) != 0,
		AggAppliedPrev: flags&(1<<1) != 0,
		EnhApplied:     flags&(1<<2) != 0,
		Backfilled:     flags&(1<<3) != 0,
		CovMerged:      int(int64(binary.LittleEndian.Uint64(mbuf[10:18]))),
		Cov: core.Coverage{
			EpochsMerged:   int(int64(binary.LittleEndian.Uint64(mbuf[18:26]))),
			EpochsExpected: int(int64(binary.LittleEndian.Uint64(mbuf[26:34]))),
		},
	}

	ubuf, ok := bySection["uploads"]
	if !ok {
		return fmt.Errorf("checkpoint has no uploads section")
	}
	if len(ubuf) < 5 || ubuf[0] != pointUploadsVersion {
		return fmt.Errorf("malformed uploads section")
	}
	count := binary.LittleEndian.Uint32(ubuf[1:5])
	// Every entry takes at least its fixed header, so the section bounds
	// the count before the count sizes an allocation.
	const entryHeader = 13
	if uint64(count) > uint64((len(ubuf)-5)/entryHeader) {
		return fmt.Errorf("uploads section claims %d entries in %d bytes", count, len(ubuf))
	}
	off := 5
	pending := make([]pendingUpload, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(ubuf) < off+entryHeader {
			return fmt.Errorf("truncated uploads section (entry %d)", i)
		}
		epoch := int64(binary.LittleEndian.Uint64(ubuf[off : off+8]))
		f := ubuf[off+8]
		n := int(binary.LittleEndian.Uint32(ubuf[off+9 : off+13]))
		off += entryHeader
		if n < 0 || len(ubuf) < off+n {
			return fmt.Errorf("truncated uploads section (entry %d payload)", i)
		}
		payload := append([]byte(nil), ubuf[off:off+n]...)
		off += n
		pending = append(pending, pendingUpload{
			up: Upload{
				Point:      c.cfg.Point,
				Epoch:      epoch,
				Sketch:     payload,
				AggApplied: f&(1<<2) != 0,
				EnhApplied: f&(1<<3) != 0,
				Rebase:     f&(1<<4) != 0,
			},
			attempted: f&(1<<0) != 0,
			sent:      f&(1<<1) != 0,
		})
	}
	if off != len(ubuf) {
		return fmt.Errorf("trailing bytes in uploads section")
	}

	if err := c.eng.loadState(bytes.NewReader(state)); err != nil {
		return err
	}
	c.eng.restoreMeta(meta)
	c.mu.Lock()
	c.up.points = points
	c.up.windowN = windowN
	c.needRebase = flags&(1<<4) != 0
	c.up.pending = pending
	c.mu.Unlock()
	return nil
}
