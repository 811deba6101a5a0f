package cluster

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/window"
)

// simCore is the design-independent half of a simulation: the epoch
// clock, the boundary choreography against the generic epoch engine,
// ground-truth tracking, and the replay loops. SpreadSim and SizeSim
// embed it and add only the design wrappers — typed queries and the
// design's networkwide baseline.
type simCore[S core.Sketch[S]] struct {
	win     window.Config
	enhance bool
	// engines are the design wrappers' underlying generic points,
	// index-aligned with the wrappers the embedding sim exposes.
	engines []*core.Point[S]
	ctr     *core.Center[S]
	// recv delivers one upload through the design wrapper's Receive
	// (spread: independent per-epoch store; size: cumulative delta
	// recovery).
	recv  func(x int, k int64, up S) error
	truth *metrics.Truth
	// truthElem: the spread truth tracks distinct elements; the size
	// truth tracks packet counts only.
	truthElem bool
	// Baseline hooks; nil when the baseline is disabled.
	baseAdvance func()
	baseRecord  func(x int, f, e uint64)

	// Tree routing (nil maps/slices = the flat single-center deployment).
	// relays/parent route uploads through the aggregation tree; topOf and
	// leafW drive the push path: the center's aggregate for a leaf's
	// top-level ancestor, compressed to the leaf's width — exactly what
	// the chain of relays would deliver hop by hop, since compression
	// composes along the width chain.
	relays map[int]*core.Relay[S]
	parent map[int]int
	topOf  []int
	leafW  []int

	epoch  int64
	lastTS window.Time

	// OnBoundary, if set, runs right after the exchange at every epoch
	// boundary; kNext is the epoch that just began. Query methods report
	// the state at the boundary instant.
	OnBoundary func(kNext int64) error
}

// Epoch returns the current epoch.
func (s *simCore[S]) Epoch() int64 { return s.epoch }

// installTree switches the boundary choreography from the flat
// single-center deployment to an aggregation tree.
func (s *simCore[S]) installTree(t *simTree[S]) {
	s.relays, s.parent, s.topOf, s.leafW = t.relays, t.parent, t.topOf, t.leafW
}

// deliver hands one node's epoch upload to its parent: the center when
// the node is top-level, otherwise its relay — and every round the relay
// completes travels one hop further up, recursively.
func (s *simCore[S]) deliver(id int, k int64, up S) error {
	r, ok := s.parent[id]
	if !ok {
		return s.recv(id, k, up)
	}
	rel := s.relays[r]
	if err := rel.Receive(id, k, up); err != nil {
		return err
	}
	for {
		e, combined, ready := rel.Next()
		if !ready {
			return nil
		}
		if err := s.deliver(r, e, combined); err != nil {
			return err
		}
	}
}

// advanceTo rolls the cluster forward to the packet's epoch, running the
// boundary choreography for every crossed boundary.
func (s *simCore[S]) advanceTo(epoch int64) error {
	for s.epoch < epoch {
		k := s.epoch
		for x, pt := range s.engines {
			if err := s.deliver(x, k, pt.EndEpoch()); err != nil {
				return err
			}
		}
		if s.baseAdvance != nil {
			s.baseAdvance()
		}
		merged, _ := s.ctr.CoverageFor(k + 1)
		for x, pt := range s.engines {
			top := x
			if s.topOf != nil {
				top = s.topOf[x]
			}
			agg, err := s.ctr.AggregateFor(top, k+1)
			if err != nil {
				return err
			}
			if top != x && !core.IsNil(agg) {
				if agg, err = agg.CompressTo(s.leafW[x]); err != nil {
					return err
				}
			}
			if err := pt.ApplyAggregateCovAt(k+1, agg, merged); err != nil {
				return err
			}
			if s.enhance {
				enh, err := s.ctr.EnhancementFor(x, k+1)
				if err != nil {
					return err
				}
				if err := pt.ApplyEnhancementAt(k+1, enh); err != nil {
					return err
				}
			}
		}
		s.epoch = k + 1
		if s.OnBoundary != nil {
			if err := s.OnBoundary(s.epoch); err != nil {
				return err
			}
		}
	}
	return nil
}

// Feed processes one trace packet. Packets must arrive in timestamp order.
func (s *simCore[S]) Feed(p trace.Packet) error {
	if p.TS < s.lastTS {
		return errNonMonotone(p.TS, s.lastTS)
	}
	s.lastTS = p.TS
	if p.Point < 0 || p.Point >= len(s.engines) {
		return errUnknownPoint(p.Point)
	}
	if err := s.advanceTo(s.win.EpochOf(p.TS)); err != nil {
		return err
	}
	s.engines[p.Point].Record(p.Flow, p.Elem)
	if s.truth != nil {
		e := uint64(0)
		if s.truthElem {
			e = p.Elem
		}
		s.truth.Record(s.epoch, p.Point, p.Flow, e)
	}
	if s.baseRecord != nil {
		s.baseRecord(p.Point, p.Flow, p.Elem)
	}
	return nil
}

// Run replays a whole packet stream through the simulation.
func (s *simCore[S]) Run(stream trace.Iterator) error {
	for {
		p, ok := stream.Next()
		if !ok {
			return nil
		}
		if err := s.Feed(p); err != nil {
			return err
		}
	}
}
