package cluster

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/window"
)

func errNonMonotone(ts, last window.Time) error {
	return fmt.Errorf("cluster: packet timestamps not monotone (%d after %d)", ts, last)
}

func errUnknownPoint(x int) error {
	return fmt.Errorf("cluster: packet for unknown point %d", x)
}

// DefaultReplayBatch is the pending-packet threshold at which RunParallel
// flushes accumulated batches into the points' recorders.
const DefaultReplayBatch = 4096

// RunParallel replays a packet stream like Run, but records each point's
// packets in batches through a core.Recorder on a goroutine of its own,
// so the points ingest concurrently. Epoch choreography, truth tracking
// and the baselines stay sequential (they model the center and the ground
// truth, not the data plane), and batches always flush before an epoch
// boundary is crossed, so the simulation's answers are identical to Run's.
//
// batch is the pending-packet flush threshold (<= 0 selects
// DefaultReplayBatch). One recorder per point; use RunParallelWorkers for
// several.
func (s *simCore[S]) RunParallel(stream trace.Iterator, batch int) error {
	return s.RunParallelWorkers(stream, batch, 1)
}

// RunParallelWorkers is RunParallel with an explicit recorder count per
// point (<= 0 selects 1), modeling a device whose NIC spreads one point's
// traffic across that many cores. Recorders persist across flushes and
// are closed before the replay returns.
func (s *simCore[S]) RunParallelWorkers(stream trace.Iterator, batch, workers int) error {
	if batch <= 0 {
		batch = DefaultReplayBatch
	}
	if workers <= 0 {
		workers = 1
	}
	recs := make([][]*core.Recorder[S], len(s.engines))
	for x, pt := range s.engines {
		recs[x] = make([]*core.Recorder[S], workers)
		for w := range recs[x] {
			recs[x][w] = pt.NewRecorder()
		}
	}
	defer func() {
		for _, rs := range recs {
			for _, r := range rs {
				r.Close()
			}
		}
	}()
	pending := make([][]core.SpreadPacket, len(s.engines))
	total := 0
	flush := func() {
		if total == 0 {
			return
		}
		var wg sync.WaitGroup
		for x, ps := range pending {
			if len(ps) == 0 {
				continue
			}
			// Stripe the point's batch across its recorders.
			stripe := (len(ps) + workers - 1) / workers
			for w := 0; w < workers && w*stripe < len(ps); w++ {
				lo, hi := w*stripe, (w+1)*stripe
				if hi > len(ps) {
					hi = len(ps)
				}
				wg.Add(1)
				go func(r *core.Recorder[S], ps []core.SpreadPacket) {
					defer wg.Done()
					r.RecordBatch(ps)
				}(recs[x][w], ps[lo:hi])
			}
			pending[x] = ps[:0]
		}
		wg.Wait()
		total = 0
	}
	for {
		p, ok := stream.Next()
		if !ok {
			flush()
			return nil
		}
		if p.TS < s.lastTS {
			flush()
			return errNonMonotone(p.TS, s.lastTS)
		}
		s.lastTS = p.TS
		if p.Point < 0 || p.Point >= len(s.engines) {
			flush()
			return errUnknownPoint(p.Point)
		}
		if e := s.win.EpochOf(p.TS); e > s.epoch {
			flush()
			if err := s.advanceTo(e); err != nil {
				return err
			}
		}
		pending[p.Point] = append(pending[p.Point], core.SpreadPacket{Flow: p.Flow, Elem: p.Elem})
		total++
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
		if total >= batch {
			flush()
		}
	}
}
