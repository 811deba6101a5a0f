package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/hll"
	"repro/internal/rskt"
	"repro/internal/slidingsketch"
	"repro/internal/transport"
	"repro/internal/vate"
)

// OverheadResult is the regenerated Table I: the time to answer one
// approximate real-time networkwide T-query with each method. The paper's
// designs answer from local memory; the baselines pay a round trip to each
// peer (here: real TCP over loopback, standing in for the paper's LAN).
type OverheadResult struct {
	TwoSketch     time.Duration
	SlidingSketch time.Duration
	ThreeSketch   time.Duration
	VATE          time.Duration
}

// overheadQueries is the number of queries each method is timed over.
const overheadQueries = 2000

// RunQueryOverhead measures Table I. Sketches are pre-filled with traffic
// so queries touch realistic state; baseline peers are separate goroutines
// behind real sockets, as in the paper's deployment.
func RunQueryOverhead(cfg Config) (OverheadResult, error) {
	var out OverheadResult
	seed := cfg.Seed
	mem := cfg.scaledMem(2)
	n := cfg.Window.N

	// Two-sketch design: a local CountMin query.
	sizePt, err := core.NewSizePoint(0, countmin.Params{
		D:    countmin.DefaultDepth,
		W:    countmin.WidthForMemory(mem, countmin.DefaultDepth),
		Seed: seed,
	}, core.SizeModeCumulative)
	if err != nil {
		return out, err
	}
	for f := uint64(0); f < 50_000; f++ {
		sizePt.Record(f % 10_000)
	}
	out.TwoSketch = timeQueries(func(f uint64) {
		_ = sizePt.Query(f)
	})

	// Three-sketch design: a local rSkt2(HLL) query.
	spreadPt, err := core.NewSpreadPoint(0, rskt.Params{
		W: rskt.WidthForMemory(mem, hll.DefaultM), M: hll.DefaultM, Seed: seed,
	})
	if err != nil {
		return out, err
	}
	for f := uint64(0); f < 5_000; f++ {
		for e := uint64(0); e < 10; e++ {
			spreadPt.Record(f, e)
		}
	}
	out.ThreeSketch = timeQueries(func(f uint64) {
		_ = spreadPt.Query(f)
	})

	// Sliding Sketch networkwide: local + 2 peers over TCP.
	mkSliding := func() *slidingsketch.Sketch {
		s := slidingsketch.New(slidingsketch.Params{
			D:     slidingsketch.DefaultDepth,
			W:     slidingsketch.WidthForMemory(mem, slidingsketch.DefaultDepth, n),
			Zones: n,
			Seed:  seed,
		})
		for f := uint64(0); f < 50_000; f++ {
			s.Record(f % 10_000)
		}
		return s
	}
	slidingLocal := mkSliding()
	var slidingServers []*transport.QueryServer
	var slidingPeers []baseline.SizePeer
	for i := 0; i < 2; i++ {
		peer := mkSliding()
		srv, err := transport.ServeQueries("127.0.0.1:0", func(f uint64) float64 {
			return float64(peer.Estimate(f))
		})
		if err != nil {
			return out, err
		}
		defer srv.Close()
		slidingServers = append(slidingServers, srv)
		qc, err := transport.DialQuery(srv.Addr().String())
		if err != nil {
			return out, err
		}
		defer qc.Close()
		slidingPeers = append(slidingPeers, qc)
	}
	_ = slidingServers
	slidingNW := &baseline.NetworkwideSize{Local: slidingLocal, Peers: slidingPeers}
	var qerr error
	out.SlidingSketch = timeQueries(func(f uint64) {
		if _, err := slidingNW.Query(f); err != nil && qerr == nil {
			qerr = err
		}
	})
	if qerr != nil {
		return out, fmt.Errorf("experiments: sliding sketch networkwide query: %w", qerr)
	}

	// VATE networkwide: local + 2 peers over TCP.
	mkVate := func() *vate.Sketch {
		s := vate.New(vate.Params{
			VirtualBits:   vate.DefaultVirtualBits,
			PhysicalCells: vate.CellsForMemory(mem, n),
			WindowN:       n,
			Seed:          seed,
		})
		for f := uint64(0); f < 5_000; f++ {
			for e := uint64(0); e < 10; e++ {
				s.Record(f, e)
			}
		}
		return s
	}
	vateLocal := mkVate()
	var vatePeers []baseline.SpreadPeer
	for i := 0; i < 2; i++ {
		peer := mkVate()
		srv, err := transport.ServeQueries("127.0.0.1:0", peer.Estimate)
		if err != nil {
			return out, err
		}
		defer srv.Close()
		qc, err := transport.DialQuery(srv.Addr().String())
		if err != nil {
			return out, err
		}
		defer qc.Close()
		vatePeers = append(vatePeers, qc)
	}
	vateNW := &baseline.NetworkwideSpread{Local: vateLocal, Peers: vatePeers}
	out.VATE = timeQueries(func(f uint64) {
		if _, err := vateNW.Query(f); err != nil && qerr == nil {
			qerr = err
		}
	})
	if qerr != nil {
		return out, fmt.Errorf("experiments: VATE networkwide query: %w", qerr)
	}
	return out, nil
}

// overheadBatches splits the timed queries into batches; the fastest
// batch is reported, so a preemption or GC pause that lands in one batch
// does not inflate a sub-microsecond local query by orders of magnitude.
const overheadBatches = 10

// timeQueries returns the mean wall time of one query in the fastest of
// overheadBatches equal batches.
func timeQueries(query func(f uint64)) time.Duration {
	const per = overheadQueries / overheadBatches
	best := time.Duration(-1)
	for b := 0; b < overheadBatches; b++ {
		start := time.Now()
		for i := b * per; i < (b+1)*per; i++ {
			query(uint64(i) % 10_000)
		}
		if d := time.Since(start) / per; best < 0 || d < best {
			best = d
		}
	}
	return best
}
