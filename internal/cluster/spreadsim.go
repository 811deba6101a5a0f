// Package cluster drives a simulated deployment — p measurement points, a
// measurement center, the baselines and an exact ground-truth tracker —
// over a packet trace in virtual time.
//
// The simulator performs the epoch choreography of internal/core at every
// epoch boundary crossed by the trace's timestamps. The paper's timing
// assumption (center round trip plus ST join complete within one epoch) is
// modelled by delivering the center's push before the first packet of the
// next epoch; the live TCP deployment in internal/transport enforces the
// same assumption with real communication.
//
// Both simulations share one design-independent engine loop (simCore);
// SpreadSim and SizeSim add only the typed query surface and the design's
// networkwide baseline.
package cluster

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/hll"
	"repro/internal/metrics"
	"repro/internal/rskt"
	"repro/internal/vate"
	"repro/internal/vhll"
	"repro/internal/window"
)

// SpreadSimConfig configures a flow-spread simulation.
type SpreadSimConfig struct {
	// Window is the T-query window model.
	Window window.Config
	// MemoryBits is the sketch memory budget per point; ratios must be
	// integral (the paper uses powers of two).
	MemoryBits []int
	// M is the register count per HLL estimator (0 = hll.DefaultM).
	M int
	// Seed is the cluster-wide hash seed.
	Seed uint64
	// Enhance enables the Section IV-D enhancement.
	Enhance bool
	// WithBaseline co-runs the VATE networkwide baseline with the same
	// per-point memory.
	WithBaseline bool
	// TrackTruth records exact ground truth (costs memory proportional to
	// the window's packet count).
	TrackTruth bool
	// VirtualBits is the VATE virtual bitmap length (0 = paper's 2048).
	VirtualBits int
	// Topology, when non-empty, routes uploads through an aggregation
	// tree of simulated relays and has the center serve the top-level
	// nodes (see Topology). Incompatible with Enhance: the enhancement
	// exchange is point-addressed and cannot cross relays.
	Topology Topology
}

// SpreadSim is a running flow-spread simulation, generic over the epoch
// sketch like the core protocol itself. NewSpreadSim builds the paper's
// rSkt2(HLL) deployment; NewVhllSpreadSim builds the vHLL-backed variant
// used by the core-sketch ablation.
type SpreadSim[S core.SpreadSketch[S]] struct {
	simCore[S]
	cfg    SpreadSimConfig
	points []*core.SpreadPoint[S]
	center *core.SpreadCenter[S]
	base   []*baseline.NetworkwideSpread
}

// NewSpreadSim builds the paper's rSkt2(HLL)-backed simulation.
func NewSpreadSim(cfg SpreadSimConfig) (*SpreadSim[*rskt.Sketch], error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	if cfg.M == 0 {
		cfg.M = hll.DefaultM
	}
	widths, err := WidthsForMemory(cfg.MemoryBits, 2*cfg.M*hll.RegisterBits)
	if err != nil {
		return nil, err
	}
	params := make(map[int]rskt.Params, len(widths))
	points := make([]*core.SpreadPoint[*rskt.Sketch], len(widths))
	for x, w := range widths {
		pr := rskt.Params{W: w, M: cfg.M, Seed: cfg.Seed}
		params[x] = pr
		pt, err := core.NewSpreadPoint(x, pr)
		if err != nil {
			return nil, err
		}
		points[x] = pt
	}
	if len(cfg.Topology) > 0 {
		protos := make([]*rskt.Sketch, len(widths))
		for x := range widths {
			protos[x] = rskt.New(params[x])
		}
		return newSpreadTreeSim(cfg, points, protos)
	}
	center, err := core.NewSpreadCenter(cfg.Window.N, params)
	if err != nil {
		return nil, err
	}
	return newSpreadSim(cfg, points, center)
}

// NewVhllSpreadSim builds a simulation whose epoch sketch is vHLL
// (register sharing) instead of rSkt2: same protocol, same memory
// accounting, different noise-handling strategy.
func NewVhllSpreadSim(cfg SpreadSimConfig) (*SpreadSim[*vhll.Sketch], error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	if cfg.M == 0 {
		cfg.M = vhll.DefaultVirtualRegisters
	}
	sizes, err := WidthsForMemory(cfg.MemoryBits, hll.RegisterBits)
	if err != nil {
		return nil, err
	}
	protos := make(map[int]*vhll.Sketch, len(sizes))
	points := make([]*core.SpreadPoint[*vhll.Sketch], len(sizes))
	for x, m := range sizes {
		params := vhll.Params{PhysicalRegisters: m, VirtualRegisters: cfg.M, Seed: cfg.Seed}
		proto, err := vhll.New(params)
		if err != nil {
			return nil, err
		}
		protos[x] = proto
		pt, err := core.NewSpreadPointOf(x, func() *vhll.Sketch {
			s, err := vhll.New(params)
			if err != nil {
				panic(err) // params validated above
			}
			return s
		})
		if err != nil {
			return nil, err
		}
		points[x] = pt
	}
	if len(cfg.Topology) > 0 {
		leafProtos := make([]*vhll.Sketch, len(sizes))
		for x := range sizes {
			leafProtos[x] = protos[x]
		}
		return newSpreadTreeSim(cfg, points, leafProtos)
	}
	center, err := core.NewSpreadCenterOf(cfg.Window.N, protos)
	if err != nil {
		return nil, err
	}
	return newSpreadSim(cfg, points, center)
}

// newSpreadTreeSim builds the tree-topology variant: simulated relays
// between the points and a center that serves the top-level nodes,
// weighted by subtree leaf count.
func newSpreadTreeSim[S core.SpreadSketch[S]](cfg SpreadSimConfig, points []*core.SpreadPoint[S], leafProtos []S) (*SpreadSim[S], error) {
	if cfg.Enhance {
		return nil, fmt.Errorf("cluster: the enhancement exchange is point-addressed and cannot cross relays; disable Enhance with Topology")
	}
	tree, err := buildTree(cfg.Topology, leafProtos, cfg.Window.N, core.SpreadEngine[S]())
	if err != nil {
		return nil, err
	}
	center, err := core.NewSpreadCenterOf(cfg.Window.N, tree.topProtos)
	if err != nil {
		return nil, err
	}
	for t, w := range tree.topWeights {
		center.SetWeight(t, w)
	}
	sim, err := newSpreadSim(cfg, points, center)
	if err != nil {
		return nil, err
	}
	sim.installTree(tree)
	return sim, nil
}

// newSpreadSim wires the shared engine loop and the sketch-independent
// extras (truth, baseline).
func newSpreadSim[S core.SpreadSketch[S]](cfg SpreadSimConfig, points []*core.SpreadPoint[S], center *core.SpreadCenter[S]) (*SpreadSim[S], error) {
	if cfg.VirtualBits == 0 {
		cfg.VirtualBits = vate.DefaultVirtualBits
	}
	p := len(points)
	sim := &SpreadSim[S]{cfg: cfg, points: points, center: center}
	engines := make([]*core.Point[S], p)
	for x, pt := range points {
		engines[x] = pt.Point
	}
	sim.simCore = simCore[S]{
		win:       cfg.Window,
		enhance:   cfg.Enhance,
		engines:   engines,
		ctr:       center.Center,
		recv:      center.Receive,
		truthElem: true,
		epoch:     1,
	}
	if cfg.TrackTruth {
		tr, err := metrics.NewTruth(cfg.Window.N, p, false, true)
		if err != nil {
			return nil, err
		}
		sim.truth = tr
	}
	if cfg.WithBaseline {
		locals := make([]*vate.Sketch, p)
		for x := range locals {
			locals[x] = vate.New(vate.Params{
				VirtualBits:   cfg.VirtualBits,
				PhysicalCells: vate.CellsForMemory(cfg.MemoryBits[x], cfg.Window.N),
				WindowN:       cfg.Window.N,
				Seed:          cfg.Seed,
			})
		}
		sim.base = make([]*baseline.NetworkwideSpread, p)
		for x := range locals {
			nw := &baseline.NetworkwideSpread{Local: locals[x]}
			for y, peer := range locals {
				if y != x {
					nw.Peers = append(nw.Peers, baseline.LocalSpreadPeer{Sketch: peer})
				}
			}
			sim.base[x] = nw
		}
		sim.baseAdvance = func() {
			for _, b := range sim.base {
				b.Advance()
			}
		}
		sim.baseRecord = func(x int, f, e uint64) { sim.base[x].Record(f, e) }
	}
	return sim, nil
}

// Points exposes the protocol points.
func (s *SpreadSim[S]) Points() []*core.SpreadPoint[S] { return s.points }

// QueryProtocol answers the T-query for flow f at point x from the
// protocol's local C sketch.
func (s *SpreadSim[S]) QueryProtocol(x int, f uint64) float64 {
	return s.points[x].Query(f)
}

// QueryBaseline answers the T-query for flow f at point x from the VATE
// networkwide baseline. The simulation's local peers never fail.
func (s *SpreadSim[S]) QueryBaseline(x int, f uint64) (float64, error) {
	if s.base == nil {
		return 0, fmt.Errorf("cluster: baseline not enabled")
	}
	return s.base[x].Query(f)
}

// TruthAt returns the exact spreads of the approximate networkwide
// T-stream for a boundary query at the start of epoch kNext at point x.
func (s *SpreadSim[S]) TruthAt(x int, kNext int64) (map[uint64]int64, error) {
	if s.truth == nil {
		return nil, fmt.Errorf("cluster: truth tracking not enabled")
	}
	return s.truth.SpreadTruth(x, kNext), nil
}

// TruthExactAt returns the exact spreads of the exact networkwide T-query
// (all points, all completed window epochs) at the boundary of epoch
// kNext.
func (s *SpreadSim[S]) TruthExactAt(kNext int64) (map[uint64]int64, error) {
	if s.truth == nil {
		return nil, fmt.Errorf("cluster: truth tracking not enabled")
	}
	return s.truth.SpreadTruthExact(kNext), nil
}
