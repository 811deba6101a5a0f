package experiments

import (
	"fmt"
	"strings"
)

// FormatAccuracy renders an accuracy figure's regenerated data as text:
// the overall metric row per method plus the bias/stderr distribution
// along the actual value.
func FormatAccuracy(res AccuracyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — query point v%d, memory %s (paper labels), %d boundaries scored\n",
		res.Label, res.QueryPoint, formatMemLabels(res.MemoryMb), res.Boundaries)
	fmt.Fprintf(&b, "%-28s %10s %12s %12s %8s\n", "method", "avg|err|", "rel bias", "rel stderr", "flows")
	for _, s := range res.Series {
		fmt.Fprintf(&b, "%-28s %10.2f %+12.4f %12.4f %8d\n",
			s.Name, s.Summary.AvgAbsErr, s.Summary.MeanRelBias, s.Summary.RelStdErr, s.Summary.Count)
	}
	for _, s := range res.Series {
		if len(s.Buckets) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s by actual value:\n", s.Name)
		fmt.Fprintf(&b, "  %-22s %8s %12s %12s\n", "actual range", "flows", "rel bias", "rel stderr")
		for _, bk := range s.Buckets {
			fmt.Fprintf(&b, "  [%8.1f, %8.1f) %8d %+12.4f %12.4f\n",
				bk.Lo, bk.Hi, bk.Count, bk.MeanRelBias, bk.RelStdErr)
		}
	}
	return b.String()
}

// FormatSweep renders a Figure 13 subplot as text.
func FormatSweep(res SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — avg absolute error vs n (%s, %dMb paper label)\n",
		res.Label, res.Kind, res.MemoryMb)
	proto, base := "two-sketch", "Sliding Sketch"
	if res.Kind == "spread" {
		proto, base = "three-sketch", "VATE"
	}
	fmt.Fprintf(&b, "%6s %16s %16s %12s\n", "n", proto, base, "reduction")
	for _, p := range res.Points {
		red := 0.0
		if p.BaselineAvgAbsErr > 0 {
			red = 100 * (1 - p.ProtocolAvgAbsErr/p.BaselineAvgAbsErr)
		}
		fmt.Fprintf(&b, "%6d %16.2f %16.2f %11.2f%%\n",
			p.N, p.ProtocolAvgAbsErr, p.BaselineAvgAbsErr, red)
	}
	return b.String()
}

// FormatOverhead renders Table I as text.
func FormatOverhead(res OverheadResult) string {
	var b strings.Builder
	b.WriteString("Table I — online query overhead (us per networkwide T-query)\n")
	fmt.Fprintf(&b, "%-14s %-16s %-14s %-14s\n", "Two-Sketch", "Sliding Sketch", "Three-Sketch", "VATE")
	fmt.Fprintf(&b, "%-14.3f %-16.1f %-14.3f %-14.1f\n",
		float64(res.TwoSketch.Nanoseconds())/1e3,
		float64(res.SlidingSketch.Nanoseconds())/1e3,
		float64(res.ThreeSketch.Nanoseconds())/1e3,
		float64(res.VATE.Nanoseconds())/1e3)
	return b.String()
}

// FormatThroughput renders Table II as text.
func FormatThroughput(res ThroughputResult) string {
	var b strings.Builder
	b.WriteString("Table II — throughput (10^6 packets per second)\n")
	fmt.Fprintf(&b, "%-14s %-16s %-14s %-14s\n", "Two-Sketch", "Sliding Sketch", "Three-Sketch", "VATE")
	fmt.Fprintf(&b, "%-14.2f %-16.2f %-14.2f %-14.2f\n",
		res.TwoSketchPPS/1e6, res.SlidingSketchPPS/1e6, res.ThreeSketchPPS/1e6, res.VATEPPS/1e6)
	if res.Workers > 0 {
		fmt.Fprintf(&b, "shared-point ingest (%d workers, batched): Two-Sketch %.2f, Three-Sketch %.2f\n",
			res.Workers, res.TwoSketchParallelPPS/1e6, res.ThreeSketchParallelPPS/1e6)
	}
	for _, row := range res.PipelineScaling {
		basis := "CPU-projected"
		if !row.CPUProjected {
			basis = "wall clock"
		}
		fmt.Fprintf(&b, "recorder ingest x%d (%s): Two-Sketch %.2f, Three-Sketch %.2f\n",
			row.Workers, basis, row.TwoSketchPPS/1e6, row.ThreeSketchPPS/1e6)
	}
	return b.String()
}

// FormatAblation renders an ablation comparison as text.
func FormatAblation(res AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", res.Label)
	fmt.Fprintf(&b, "%-44s %10s %12s %12s %10s\n", "variant", "avg|err|", "rel bias", "rel stderr", "mem (Mb)")
	for _, v := range res.Variants {
		fmt.Fprintf(&b, "%-44s %10.2f %+12.4f %12.4f %10.1f\n",
			v.Name, v.Summary.AvgAbsErr, v.Summary.MeanRelBias, v.Summary.RelStdErr, v.MemoryMbE)
	}
	return b.String()
}

func formatMemLabels(mb []int) string {
	parts := make([]string, len(mb))
	for i, v := range mb {
		parts[i] = fmt.Sprintf("%dMb", v)
	}
	return strings.Join(parts, "/")
}
