package core

import (
	"repro/internal/rskt"
)

// SpreadCenter is the measurement center for the three-sketch design,
// generic over the epoch sketch: the generic epoch engine instantiated
// with the non-additive (register-max) merge discipline, under which
// per-epoch uploads are independent facts and no push bookkeeping is
// needed. It stores the per-epoch uploads of every point and performs the
// ST join (see Center).
type SpreadCenter[S SpreadSketch[S]] struct {
	*Center[S]
}

// NewSpreadCenterOf creates a center for a cluster whose points use the
// given sketch prototypes (keyed by point id). All prototypes must be
// mutually compatible, and the maximum width must be a multiple of every
// width (power-of-two-ratio widths satisfy this).
func NewSpreadCenterOf[S SpreadSketch[S]](windowN int, protos map[int]S) (*SpreadCenter[S], error) {
	ctr, err := NewCenter(windowN, protos, SpreadEngine[S]())
	if err != nil {
		return nil, err
	}
	return &SpreadCenter[S]{Center: ctr}, nil
}

// NewSpreadCenter creates the paper's rSkt2(HLL)-backed center from
// per-point sketch parameters.
func NewSpreadCenter(windowN int, points map[int]rskt.Params) (*SpreadCenter[*rskt.Sketch], error) {
	protos := make(map[int]*rskt.Sketch, len(points))
	for id, p := range points {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		protos[id] = rskt.New(p)
	}
	return NewSpreadCenterOf(windowN, protos)
}
