package transport

import (
	"bytes"
	"fmt"

	"repro/internal/core"
)

// Point state: the sketches and epoch a point checkpoints (the `state`
// section of its checkpoint), so a restart does not lose the current
// window. Format: the TQST2 magic + kind byte + epoch + length-prefixed
// sketch blobs in their one binary encoding (B/C/C' for spread, [B]/C/C'
// for size with a presence flag for B). loadState rejects any other magic,
// including the retired TQST1, and requires the state's design kind and
// sketch shapes to match the point's configuration.

var stateMagic = []byte("TQST2")

// stateKind is the TQST2 kind byte: 'z' for the additive (size) framing,
// which writes a B-presence byte because cumulative mode keeps no B
// sketch, 's' for the spread framing, which always has all three sketches.
func (e *enginePoint[S]) stateKind() byte {
	if e.additive {
		return 'z'
	}
	return 's'
}

func (e *enginePoint[S]) saveState() ([]byte, error) {
	var a appender
	a.raw(stateMagic)
	a.u8(e.stateKind())
	epoch, b, cc, cp := e.pt.Snapshot()
	a.i64(epoch)
	sketches := []S{b, cc, cp}
	if e.additive {
		hasB := !core.IsNil(b)
		a.boolean(hasB)
		if !hasB {
			sketches = sketches[1:]
		}
	}
	for _, sk := range sketches {
		data, err := sk.MarshalBinaryCompact()
		if err != nil {
			return nil, err
		}
		a.blob(data)
	}
	return a.b, nil
}

func (e *enginePoint[S]) loadState(data []byte) error {
	r := reader{b: data}
	if m := r.take(len(stateMagic)); r.err == nil && !bytes.Equal(m, stateMagic) {
		return fmt.Errorf("transport: state magic %q, want %q", m, stateMagic)
	}
	if k := r.u8(); r.err == nil && k != e.stateKind() {
		return fmt.Errorf("transport: state kind %q does not match the point's design", k)
	}
	epoch := r.i64()
	blobs := make([][]byte, 3)
	if e.additive && !r.boolean() {
		blobs = blobs[1:]
	}
	for i := range blobs {
		blobs[i] = r.blob()
	}
	if err := r.done(); err != nil {
		return fmt.Errorf("transport: read state: %w", err)
	}
	sketches := make([]S, 3)
	for i, data := range blobs {
		sk, err := decodeFor(e.scratch.fresh, e.pt.ID(), data)
		if err != nil {
			return err
		}
		sketches[3-len(blobs)+i] = sk
	}
	return e.pt.RestoreSnapshot(epoch, sketches[0], sketches[1], sketches[2])
}
