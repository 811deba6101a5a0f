package main

import (
	"fmt"
	"sort"
)

// metric is one reported number. N is the sample count behind a timing;
// Tail/TailValue name the highest percentile that still has ten samples
// beyond it (reported, never gated).
type metric struct {
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	N         int     `json:"n,omitempty"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// samples collects one timing's observations.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// median returns the 50th percentile, 0 when empty: a run rejects an
// end-to-end metric that reads 0 as not measured.
func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	if n := len(c); n%2 == 1 {
		return c[n/2]
	} else {
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// metric summarizes the samples as median plus tail.
func (s samples) metric(unit string) metric {
	m := metric{Value: s.median(), Unit: unit, N: len(s)}
	if n := len(s); n > 10 {
		c := append(samples(nil), s...)
		sort.Float64s(c)
		m.Tail = fmt.Sprintf("p%.4g", 100*(1-10/float64(n)))
		m.TailValue = c[n-11]
	}
	return m
}
