package transport

import (
	"sync"

	"repro/internal/core"
)

// relayEngine is the design-erased aggregation relay the RelayServer
// drives: core.Relay behind the byte-level sketch codec, mirroring how
// pointEngine/centerEngine wrap core.Point/core.Center. Sketch payloads
// cross the boundary in their one binary encoding.
type relayEngine interface {
	// receiveChild decodes one child upload and merges it into its epoch's
	// combined round (core.Relay.Receive semantics, including the
	// idempotent ErrDuplicateUpload drop).
	receiveChild(up Upload) error
	// nextReady pops the next combined upload ready to travel upstream,
	// marshaled; ok=false when the next epoch's round is still missing
	// children. Call in a loop.
	nextReady() (epoch int64, payload []byte, ok bool, err error)
	// reencoder returns the re-encoding of one relay-width push payload at
	// a child's width (the expand-and-compress chain's downward leg;
	// compression composes exactly along divisibility chains of widths).
	// The payload is decoded at most once and each distinct width is built
	// once; the function is safe for concurrent use. A child at the relay
	// width gets data itself, which canonical encodings make bit-identical
	// to re-encoding it.
	reencoder(data []byte) func(childW int) ([]byte, error)
	relayNode
}

// relayNode is what the RelayServer asks core.Relay as it is: the
// methods whose signatures name no sketch.
type relayNode interface {
	Width() int
	TotalWeight() int
	LastEpoch(child int) int64
	Forwarded() int64
	ResyncForwarded(epoch int64)
	ExportState() (*core.RelayState, error)
	ImportState(st *core.RelayState) error
}

// engineRelay is the single relay-engine implementation, generic over the
// epoch sketch.
type engineRelay[S core.Sketch[S]] struct {
	*core.Relay[S]
	// pool recycles decoded child uploads: a round clones what it keeps,
	// so one scratch sketch per width absorbs upload after upload.
	pool sketchPool[S]
}

func (e *engineRelay[S]) receiveChild(up Upload) error {
	return e.pool.use(up.Point, up.Sketch, func(sk S) error { return e.Receive(up.Point, up.Epoch, sk) })
}

func (e *engineRelay[S]) nextReady() (int64, []byte, bool, error) {
	epoch, combined, ok := e.Next()
	if !ok {
		return 0, nil, false, nil
	}
	data, err := combined.MarshalBinaryCompact()
	return epoch, data, true, err
}

func (e *engineRelay[S]) reencoder(data []byte) func(childW int) ([]byte, error) {
	var (
		mu     sync.Mutex
		sk     S
		decErr error
		built  = make(map[int][]byte)
	)
	return func(childW int) ([]byte, error) {
		if childW == e.Width() {
			return data, nil
		}
		mu.Lock()
		defer mu.Unlock()
		if b, ok := built[childW]; ok {
			return b, nil
		}
		if core.IsNil(sk) {
			sk = e.NewPartialSketch()
			decErr = sk.UnmarshalBinary(data)
		}
		if decErr != nil {
			return nil, decErr
		}
		out, err := sk.CompressTo(childW)
		if err != nil {
			return nil, err
		}
		b, err := out.MarshalBinaryCompact()
		if err == nil {
			built[childW] = b
		}
		return b, err
	}
}
