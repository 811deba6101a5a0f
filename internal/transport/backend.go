package transport

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
)

// The one place a Kind becomes code: backendFor maps the design and the
// shared sketch parameters to a width→prototype function plus the
// design's core.EngineConfig (core.SizeEngine, core.SpreadEngine), and
// enginesOf turns that pair into the point, center and relay
// constructors. The size design runs CountMin and the spread design the
// paper's rSkt2(HLL). Every engine of every role is built here, so the
// choice cannot fork; `make lint` fails if a sketch constructor appears
// in any other non-test transport file.

// engines builds one backend's protocol engines.
type engines struct {
	point  func(id, w int) (pointEngine, error)
	center func(windowN int, widths map[int]int) (centerEngine, error)
	relay  func(windowN int, widths, weights map[int]int) (relayEngine, error)
}

// backendFor selects the backend of a configuration. delta picks the size
// design's per-epoch delta uploads over the paper's cumulative ones; the
// spread design always uploads deltas.
func backendFor(kind Kind, m, d int, seed uint64, delta bool) (engines, error) {
	switch kind {
	case KindSpread:
		return enginesOf(func(w int) (*rskt.Sketch, error) {
			p := rskt.Params{W: w, M: m, Seed: seed}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return rskt.New(p), nil
		}, core.SpreadEngine[*rskt.Sketch](), cellIndex[*rskt.Sketch]{
			index: rskt.AppendIndex,
			check: func(enc, idx []byte, w int) error {
				return rskt.CheckEncoded(enc, idx, w, m)
			},
			project: func(enc, idx []byte, w int, f uint64) (*rskt.Sketch, error) {
				return rskt.ProjectEncoded(enc, idx, w, m, f)
			},
		}), nil
	case KindSize:
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
		}, core.SizeEngine(mode), cellIndex[*countmin.Sketch]{
			index: countmin.AppendIndex,
			check: func(enc, idx []byte, w int) error {
				return countmin.CheckEncoded(enc, idx, d, w)
			},
			project: func(enc, idx []byte, w int, f uint64) (*countmin.Sketch, error) {
				return countmin.ProjectEncoded(enc, idx, d, w, f)
			},
		}), nil
	}
	return engines{}, fmt.Errorf("transport: unknown kind %q", kind)
}

// cellIndex is a backend's block index for partial cells
// (appendPartialCell): index appends a sketch encoding's block index,
// check tells whether an encoding and index are of this backend at width
// w and the index spans the encoding, and project reads flow f's width-1
// projection (core.Sketch.Project) out of an encoding of width w through
// the index, walking only the blocks that hold the flow's column.
type cellIndex[S core.Sketch[S]] struct {
	index   func(dst, enc []byte) ([]byte, error)
	check   func(enc, idx []byte, w int) error
	project func(enc, idx []byte, w int, f uint64) (S, error)
}

// enginesOf builds the engines of one sketch type from a width→prototype
// function, the design's discipline and the backend's partial-cell index.
func enginesOf[S core.Sketch[S]](proto func(w int) (S, error), cfg core.EngineConfig[S], cells cellIndex[S]) engines {
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
			return newEnginePoint(pt, w, cfg.Additive), nil
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
			return newEngineCenter(ctr, cfg, cells, widths), nil
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
			return &engineRelay[S]{Relay: rel, pool: sketchPool[S]{fresh: rel.NewSketch, widths: widths}}, nil
		},
	}
}

// newPointEngine builds the point engine selected by the configuration.
func newPointEngine(cfg PointConfig) (pointEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.M, cfg.D, cfg.Seed, cfg.DeltaUploads)
	if err != nil {
		return nil, err
	}
	return b.point(cfg.Point, cfg.W)
}

// newCenterEngine builds the center engine selected by the configuration.
func newCenterEngine(cfg CenterConfig) (centerEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.M, cfg.D, cfg.Seed, cfg.DeltaUploads)
	if err != nil {
		return nil, err
	}
	return b.center(cfg.WindowN, cfg.Widths)
}

// newRelayEngine builds the relay engine selected by the configuration.
// Size relays always run delta mode: cumulative uploads cannot be
// pre-merged, so every point beneath a relay must run with DeltaUploads.
func newRelayEngine(cfg RelayConfig) (relayEngine, error) {
	b, err := backendFor(cfg.Kind, cfg.M, cfg.D, cfg.Seed, true)
	if err != nil {
		return nil, err
	}
	return b.relay(cfg.WindowN, cfg.Widths, cfg.Weights)
}
