package transport

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The one place a (Kind, Sketch) configuration becomes code: backendFor
// maps the design, the spread design's sketch backend and the shared
// sketch parameters to a width→prototype function plus the design's
// core.EngineConfig, and enginesOf turns that pair into the point, center
// and relay constructors. Every engine of every role is built here, so
// the choice cannot fork; `make lint` fails if a sketch constructor
// appears in any other non-test transport file.

// Sketch backend names for PointConfig.Sketch, CenterConfig.Sketch and
// RelayConfig.Sketch. The empty string means the design's default backend.
const (
	// SketchRskt is the paper's rSkt2(HLL) spread sketch (default).
	SketchRskt = "rskt"
	// SketchVhll is the register-sharing vHLL spread sketch, the
	// core-sketch ablation's backend.
	SketchVhll = "vhll"
)

// engines builds one backend's protocol engines.
type engines struct {
	point  func(id, w int) (pointEngine, error)
	center func(windowN int, widths map[int]int) (centerEngine, error)
	relay  func(windowN int, widths, weights map[int]int) (relayEngine, error)
}

// backendFor selects the backend of a configuration. delta picks the size
// design's per-epoch delta uploads over the paper's cumulative ones; the
// spread design always uploads deltas.
func backendFor(kind Kind, sketch string, m, d int, seed uint64, delta bool) (engines, error) {
	switch kind {
	case KindSpread:
		switch sketch {
		case "", SketchRskt:
			return enginesOf(func(w int) (*rskt.Sketch, error) {
				p := rskt.Params{W: w, M: m, Seed: seed}
				if err := p.Validate(); err != nil {
					return nil, err
				}
				return rskt.New(p), nil
			}, core.EngineConfig[*rskt.Sketch]{Design: "spread", Mode: core.ModeDelta}), nil
		case SketchVhll:
			return enginesOf(func(w int) (*vhll.Sketch, error) {
				return vhll.New(vhll.Params{PhysicalRegisters: w, VirtualRegisters: m, Seed: seed})
			}, core.EngineConfig[*vhll.Sketch]{Design: "spread", Mode: core.ModeDelta}), nil
		}
		return engines{}, fmt.Errorf("transport: unknown spread sketch %q", sketch)
	case KindSize:
		if sketch != "" && sketch != SketchRskt {
			return engines{}, fmt.Errorf("transport: the size design has no alternate sketch backend (got %q)", sketch)
		}
		mode := core.ModeCumulative
		if delta {
			mode = core.ModeDelta
		}
		return enginesOf(func(w int) (*countmin.Sketch, error) {
			p := countmin.Params{D: d, W: w, Seed: seed}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return countmin.New(p), nil
		}, core.EngineConfig[*countmin.Sketch]{
			Design: "size", Mode: mode, Additive: true, Sub: (*countmin.Sketch).SubSketch,
		}), nil
	}
	return engines{}, fmt.Errorf("transport: unknown kind %q", kind)
}

// enginesOf builds the engines of one sketch type from a width→prototype
// function and the design's discipline.
func enginesOf[S core.Sketch[S]](proto func(w int) (S, error), cfg core.EngineConfig[S]) engines {
	protos := func(widths map[int]int) (map[int]S, error) {
		out := make(map[int]S, len(widths))
		for id, w := range widths {
			sk, err := proto(w)
			if err != nil {
				return nil, err
			}
			out[id] = sk
		}
		return out, nil
	}
	return engines{
		point: func(id, w int) (pointEngine, error) {
			if _, err := proto(w); err != nil {
				return nil, err
			}
			pt, err := core.NewPoint(id, func() S {
				sk, err := proto(w)
				if err != nil {
					panic(err) // the width was validated above
				}
				return sk
			}, cfg)
			if err != nil {
				return nil, err
			}
			return newEnginePoint(pt, cfg.Additive), nil
		},
		center: func(windowN int, widths map[int]int) (centerEngine, error) {
			ps, err := protos(widths)
			if err != nil {
				return nil, err
			}
			ctr, err := core.NewCenter(windowN, ps, cfg)
			if err != nil {
				return nil, err
			}
			return newEngineCenter(ctr, cfg), nil
		},
		relay: func(windowN int, widths, weights map[int]int) (relayEngine, error) {
			ps, err := protos(widths)
			if err != nil {
				return nil, err
			}
			rel, err := core.NewRelay(windowN, ps, weights, cfg)
			if err != nil {
				return nil, err
			}
			return &engineRelay[S]{rel: rel}, nil
		},
	}
}

// newPointEngine builds the point engine selected by the configuration.
func newPointEngine(cfg PointConfig) (pointEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.Sketch, cfg.M, cfg.D, cfg.Seed, cfg.DeltaUploads)
	if err != nil {
		return nil, err
	}
	return b.point(cfg.Point, cfg.W)
}

// newCenterEngine builds the center engine selected by the configuration.
func newCenterEngine(cfg CenterConfig) (centerEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.Sketch, cfg.M, cfg.D, cfg.Seed, cfg.DeltaUploads)
	if err != nil {
		return nil, err
	}
	return b.center(cfg.WindowN, cfg.Widths)
}

// newRelayEngine builds the relay engine selected by the configuration.
// Size relays always run delta mode: cumulative uploads cannot be
// pre-merged, so every point beneath a relay must run with DeltaUploads.
func newRelayEngine(cfg RelayConfig) (relayEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.Sketch, cfg.M, cfg.D, cfg.Seed, true)
	if err != nil {
		return nil, err
	}
	return b.relay(cfg.WindowN, cfg.Widths, cfg.Weights)
}
