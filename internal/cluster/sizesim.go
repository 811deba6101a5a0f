package cluster

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/metrics"
	"repro/internal/slidingsketch"
	"repro/internal/window"
)

// SizeSimConfig configures a flow-size simulation.
type SizeSimConfig struct {
	// Window is the T-query window model.
	Window window.Config
	// MemoryBits is the sketch memory budget per point; ratios must be
	// integral.
	MemoryBits []int
	// D is the CountMin row count (0 = countmin.DefaultDepth).
	D int
	// Seed is the cluster-wide hash seed.
	Seed uint64
	// Mode selects cumulative (paper) or delta (ablation) uploads
	// (0 = cumulative).
	Mode core.SizeMode
	// Enhance enables the Section IV-D enhancement.
	Enhance bool
	// WithBaseline co-runs the Sliding Sketch networkwide baseline with
	// the same per-point memory (d=10 rows, n zones, as in the paper).
	WithBaseline bool
	// BaselineDepth is the Sliding Sketch row count
	// (0 = slidingsketch.DefaultDepth).
	BaselineDepth int
	// TrackTruth records exact ground truth.
	TrackTruth bool
	// Topology, when non-empty, routes uploads through an aggregation
	// tree of simulated relays (see Topology). Trees require delta-mode
	// uploads (cumulative sketches cannot be pre-merged): Mode defaults
	// to delta and explicitly configuring cumulative is an error.
	Topology Topology
}

// SizeSim is a running flow-size simulation: the shared engine loop
// instantiated with the flow-size design.
type SizeSim struct {
	simCore[*countmin.Sketch]
	cfg    SizeSimConfig
	points []*core.SizePoint
	center *core.SizeCenter
	base   []*baseline.NetworkwideSize
}

// NewSizeSim builds the simulation.
func NewSizeSim(cfg SizeSimConfig) (*SizeSim, error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	if cfg.D == 0 {
		cfg.D = countmin.DefaultDepth
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.SizeModeCumulative
		if len(cfg.Topology) > 0 {
			cfg.Mode = core.SizeModeDelta
		}
	}
	if len(cfg.Topology) > 0 && cfg.Mode != core.SizeModeDelta {
		return nil, fmt.Errorf("cluster: tree topologies require delta-mode size uploads (cumulative sketches cannot be pre-merged)")
	}
	if cfg.BaselineDepth == 0 {
		cfg.BaselineDepth = slidingsketch.DefaultDepth
	}
	widths, err := WidthsForMemory(cfg.MemoryBits, cfg.D*countmin.CounterBits)
	if err != nil {
		return nil, err
	}
	p := len(widths)
	params := make(map[int]countmin.Params, p)
	points := make([]*core.SizePoint, p)
	for x, w := range widths {
		pr := countmin.Params{D: cfg.D, W: w, Seed: cfg.Seed}
		params[x] = pr
		pt, err := core.NewSizePoint(x, pr, cfg.Mode)
		if err != nil {
			return nil, err
		}
		points[x] = pt
	}
	var tree *simTree[*countmin.Sketch]
	centerParams := params
	if len(cfg.Topology) > 0 {
		if cfg.Enhance {
			return nil, fmt.Errorf("cluster: the enhancement exchange is point-addressed and cannot cross relays; disable Enhance with Topology")
		}
		leafProtos := make([]*countmin.Sketch, p)
		for x := range leafProtos {
			leafProtos[x] = countmin.New(params[x])
		}
		tree, err = buildTree(cfg.Topology, leafProtos, cfg.Window.N, core.SizeEngine(core.ModeDelta))
		if err != nil {
			return nil, err
		}
		centerParams = make(map[int]countmin.Params, len(tree.topWidth))
		for t, w := range tree.topWidth {
			centerParams[t] = countmin.Params{D: cfg.D, W: w, Seed: cfg.Seed}
		}
	}
	center, err := core.NewSizeCenter(cfg.Window.N, centerParams, cfg.Mode)
	if err != nil {
		return nil, err
	}
	if tree != nil {
		for t, w := range tree.topWeights {
			center.SetWeight(t, w)
		}
	}
	sim := &SizeSim{cfg: cfg, points: points, center: center}
	engines := make([]*core.Point[*countmin.Sketch], p)
	for x, pt := range points {
		engines[x] = pt.Point
	}
	sim.simCore = simCore[*countmin.Sketch]{
		win:     cfg.Window,
		enhance: cfg.Enhance,
		engines: engines,
		ctr:     center.Center,
		recv:    center.Receive,
		epoch:   1,
	}
	if tree != nil {
		sim.installTree(tree)
	}
	if cfg.TrackTruth {
		tr, err := metrics.NewTruth(cfg.Window.N, p, true, false)
		if err != nil {
			return nil, err
		}
		sim.truth = tr
	}
	if cfg.WithBaseline {
		locals := make([]*slidingsketch.Sketch, p)
		for x := range locals {
			locals[x] = slidingsketch.New(slidingsketch.Params{
				D:     cfg.BaselineDepth,
				W:     slidingsketch.WidthForMemory(cfg.MemoryBits[x], cfg.BaselineDepth, cfg.Window.N),
				Zones: cfg.Window.N,
				Seed:  cfg.Seed,
			})
		}
		sim.base = make([]*baseline.NetworkwideSize, p)
		for x := range locals {
			nw := &baseline.NetworkwideSize{Local: locals[x]}
			for y, peer := range locals {
				if y != x {
					nw.Peers = append(nw.Peers, baseline.LocalSizePeer{Sketch: peer})
				}
			}
			sim.base[x] = nw
		}
		sim.baseAdvance = func() {
			for _, b := range sim.base {
				b.Advance()
			}
		}
		sim.baseRecord = func(x int, f, _ uint64) { sim.base[x].Record(f) }
	}
	return sim, nil
}

// Points exposes the protocol points.
func (s *SizeSim) Points() []*core.SizePoint { return s.points }

// Center exposes the measurement center (for diagnostics and ablations).
func (s *SizeSim) Center() *core.SizeCenter { return s.center }

// QueryProtocol answers the T-query for flow f at point x from the
// protocol's local C sketch.
func (s *SizeSim) QueryProtocol(x int, f uint64) int64 {
	return s.points[x].Query(f)
}

// QueryBaseline answers the T-query for flow f at point x from the Sliding
// Sketch networkwide baseline.
func (s *SizeSim) QueryBaseline(x int, f uint64) (int64, error) {
	if s.base == nil {
		return 0, fmt.Errorf("cluster: baseline not enabled")
	}
	return s.base[x].Query(f)
}

// TruthAt returns the exact sizes of the approximate networkwide T-stream
// for a boundary query at the start of epoch kNext at point x.
func (s *SizeSim) TruthAt(x int, kNext int64) (map[uint64]int64, error) {
	if s.truth == nil {
		return nil, fmt.Errorf("cluster: truth tracking not enabled")
	}
	return s.truth.SizeTruth(x, kNext), nil
}

// TruthExactAt returns the exact sizes of the exact networkwide T-query
// (all points, all completed window epochs) at the boundary of epoch
// kNext.
func (s *SizeSim) TruthExactAt(kNext int64) (map[uint64]int64, error) {
	if s.truth == nil {
		return nil, fmt.Errorf("cluster: truth tracking not enabled")
	}
	return s.truth.SizeTruthExact(kNext), nil
}
