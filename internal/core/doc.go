// Package core implements the paper's contribution: the protocol that lets
// any measurement point answer approximate real-time networkwide T-queries
// from local memory.
//
// Two designs are provided:
//
//   - the three-sketch design for flow spread (Section IV), built on
//     rSkt2(HLL): sketches B (current epoch, uploaded), C (query target) and
//     C' (staging for the next epoch);
//   - the two-sketch design for flow size (Section V), built on CountMin:
//     sketches C and C' only; the center recovers per-epoch data from the
//     cumulative uploads by counter-wise subtraction.
//
// The measurement center performs the spatial-temporal (ST) join: the
// temporal join over the window's completed epochs (register-wise max for
// spread, counter-wise addition for size) and the spatial join across
// points. Under device diversity the spatial join is the expand-and-compress
// nonuniform join of Sections IV-C and V-C, and the aggregate returned to
// each point is customized to that point's width. Both joins are
// element-wise, so the center regroups them by epoch: each epoch's cells
// join once into a per-epoch partial at the maximum width, and a window is
// the merge of its partials.
//
// The intended epoch choreography (driven by internal/cluster or by the
// live transport) is, at the end of epoch k at every point:
//
//  1. point: upload := EndEpoch()   (B for spread, cumulative C for size;
//     this also performs C <- C', resets C' and B)
//  2. center: Receive(point, k, upload) for every point
//  3. center: agg := AggregateFor(point, k+1) during epoch k+1; the
//     first call of the round joins the window from the per-epoch
//     partials, and every call compresses it at most once per distinct
//     width (later callers of that width share the result)
//  4. point: ApplyAggregateCovAt(k+1, agg, merged)  (merged into C';
//     merged is the center's CoverageFor(k+1) count)
//
// and optionally (Section IV-D enhancement):
//
//  5. center: enh := EnhancementFor(point, k+1)
//  6. point: ApplyEnhancementAt(k+1, enh)  (merged straight into C)
//
// Queries at any time read only the local C sketch.
package core
