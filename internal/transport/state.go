package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Point state: the sketches and epoch a point checkpoints (the `state`
// section of its checkpoint), so a restart does not lose the current
// window. Format: the TQST2 magic + kind byte + epoch + length-prefixed
// sketch blobs in their one binary encoding (B/C/C' for spread, [B]/C/C'
// for size with a presence flag for B). loadState rejects any other magic,
// including the retired TQST1, and requires the state's design kind and
// sketch shapes to match the point's configuration.

var stateMagic = [5]byte{'T', 'Q', 'S', 'T', '2'}

func (e *enginePoint[S]) saveState(w io.Writer) error {
	if _, err := w.Write(stateMagic[:]); err != nil {
		return fmt.Errorf("transport: write state magic: %w", err)
	}
	if _, err := w.Write([]byte{e.codec.stateKind}); err != nil {
		return err
	}
	writeBlob := func(data []byte) error {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(data)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	}
	epoch, b, cc, cp := e.pt.Snapshot()
	var epochBuf [8]byte
	binary.LittleEndian.PutUint64(epochBuf[:], uint64(epoch))
	if _, err := w.Write(epochBuf[:]); err != nil {
		return err
	}
	sketches := []S{b, cc, cp}
	if e.codec.hasBByte {
		hasB := byte(0)
		if !core.IsNil(b) {
			hasB = 1
		}
		if _, err := w.Write([]byte{hasB}); err != nil {
			return err
		}
		if hasB == 0 {
			sketches = sketches[1:]
		}
	}
	for _, sk := range sketches {
		data, err := sk.MarshalBinaryCompact()
		if err != nil {
			return err
		}
		if err := writeBlob(data); err != nil {
			return fmt.Errorf("transport: write state: %w", err)
		}
	}
	return nil
}

func (e *enginePoint[S]) loadState(r io.Reader) error {
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("transport: read state magic: %w", err)
	}
	if magic != stateMagic {
		return fmt.Errorf("transport: state magic %q, want %q", magic[:], stateMagic[:])
	}
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return err
	}
	if kind[0] != e.codec.stateKind {
		return fmt.Errorf("transport: state kind %q does not match the point's design", kind[0])
	}
	var epochBuf [8]byte
	if _, err := io.ReadFull(r, epochBuf[:]); err != nil {
		return err
	}
	epoch := int64(binary.LittleEndian.Uint64(epochBuf[:]))
	readBlob := func() ([]byte, error) {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		const maxBlob = 1 << 30
		if n > maxBlob {
			return nil, fmt.Errorf("transport: implausible state blob size %d", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	count := 3
	var b S
	if e.codec.hasBByte {
		var hasB [1]byte
		if _, err := io.ReadFull(r, hasB[:]); err != nil {
			return err
		}
		if hasB[0] != 1 {
			count = 2
		}
	}
	sketches := make([]S, 0, count)
	for i := 0; i < count; i++ {
		data, err := readBlob()
		if err != nil {
			return fmt.Errorf("transport: read state: %w", err)
		}
		sk, err := decodeFor(e.scratch.fresh, e.pt.ID(), data)
		if err != nil {
			return err
		}
		sketches = append(sketches, sk)
	}
	if count == 3 {
		b = sketches[0]
		sketches = sketches[1:]
	}
	return e.pt.RestoreSnapshot(epoch, b, sketches[0], sketches[1])
}
