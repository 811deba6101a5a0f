// Command tqrelay runs an aggregation-tree relay: it serves the center
// protocol to its children (tqpoint agents or deeper tqrelay instances),
// merges their per-epoch uploads into one combined sketch per round, and
// speaks the point protocol upstream — so the center (or a higher relay)
// sees the whole subtree as a single weighted child. Size-design trees
// require every point to run with -delta: cumulative uploads cannot be
// pre-merged.
//
// Usage:
//
//	tqrelay -addr :7071 -upstream 127.0.0.1:7070 -relay 100 \
//	        -kind spread -n 10 -widths 0:1638,1:3276
//	tqrelay -addr :7071 -upstream 127.0.0.1:7070 -relay 100 \
//	        -kind size -n 10 -widths 0:16384,1:16384 -weights 0:1,1:1
//
// The upstream topology must list this relay as a direct child whose
// width is the maximum child width here and whose weight is the subtree's
// leaf count (-weights sums, default 1 per child).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/diag"
	"repro/internal/topoflag"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tqrelay:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tqrelay", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7071", "child-facing listen address")
		upstream   = fs.String("upstream", "127.0.0.1:7070", "upstream address (center or higher relay)")
		relayID    = fs.Int("relay", 100, "this relay's id in the upstream topology")
		kind       = fs.String("kind", "size", `design: "size" or "spread"`)
		n          = fs.Int("n", 10, "epochs per window (the paper's n)")
		widths     = fs.String("widths", "", "children as id:width pairs, e.g. 0:1638,1:3276")
		weights    = fs.String("weights", "", "children as id:weight pairs (subtree leaf counts; default 1 each)")
		m          = fs.Int("m", 128, "HLL registers per estimator (spread)")
		d          = fs.Int("d", 4, "CountMin rows (size)")
		seed       = fs.Uint64("seed", 42, "cluster-wide hash seed")
		shard      = fs.String("shard", "", `center shard this subtree belongs to, as "i/n" (default unsharded)`)
		ckptDir    = fs.String("checkpoint-dir", "", "write atomic checkpoints of the relay state here and recover from them on restart")
		ckptEvry   = fs.Int("checkpoint-every", 1, "push rounds between checkpoints (with -checkpoint-dir)")
		histAddr   = fs.String("history-addr", "", "serve a history-query proxy on this address, forwarding tqquery frames to -history-upstream")
		histUp     = fs.String("history-upstream", "", "the parent's query endpoint (tqcenter -history-addr, or a higher tqrelay -history-addr)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		healthAddr = fs.String("health", "", "serve /healthz + /readyz on this address, e.g. localhost:8071")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		a, err := diag.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Printf("tqrelay %d: pprof on http://%s/debug/pprof/\n", *relayID, a)
	}
	topo, err := topoflag.Pairs(*widths, "width")
	if err != nil {
		return err
	}
	if topo == nil {
		return fmt.Errorf("missing -widths (e.g. 0:1638,1:1638)")
	}
	wts, err := topoflag.Pairs(*weights, "weight")
	if err != nil {
		return err
	}
	shardIdx, _, err := topoflag.Shard(*shard)
	if err != nil {
		return err
	}

	srv, err := transport.ServeRelay(transport.RelayConfig{
		Addr:                *addr,
		UpstreamAddr:        *upstream,
		Relay:               *relayID,
		Kind:                transport.Kind(*kind),
		WindowN:             *n,
		Widths:              topo,
		Weights:             wts,
		M:                   *m,
		D:                   *d,
		Seed:                *seed,
		Shard:               shardIdx,
		CheckpointDir:       *ckptDir,
		CheckpointEvery:     *ckptEvry,
		HistoryAddr:         *histAddr,
		HistoryUpstreamAddr: *histUp,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *healthAddr != "" {
		// A relay is ready only when both sides of the hop are live: the
		// upstream connection is up AND at least one child is connected.
		a, err := diag.ServeHealth(*healthAddr, func() diag.Health {
			st := srv.Stats()
			mergeAge := -1.0
			if !st.LastRoundAt.IsZero() {
				mergeAge = time.Since(st.LastRoundAt).Seconds()
			}
			return diag.Health{
				Ready: st.UpstreamConnected && st.ConnectedChildren > 0,
				Detail: map[string]any{
					"connected_children": st.ConnectedChildren,
					"upstream_connected": st.UpstreamConnected,
					"last_push_epoch":    st.LastPushEpoch,
					"last_merge_age_s":   mergeAge,
					"uploads_dropped":    st.UploadsDropped,
					"evictions":          st.Evictions,
				},
			}
		})
		if err != nil {
			return err
		}
		fmt.Printf("tqrelay %d: health on http://%s/readyz\n", *relayID, a)
	}
	fmt.Printf("tqrelay %d: %s design, n=%d, %d children on %s, upstream %s\n",
		*relayID, *kind, *n, len(topo), srv.Addr(), *upstream)
	if a := srv.HistoryQueryAddr(); a != nil {
		fmt.Printf("tqrelay %d: history queries on %s (proxied to %s)\n", *relayID, a, *histUp)
	}
	if *ckptDir != "" {
		if gen := srv.Stats().RestoredGeneration; gen > 0 {
			fmt.Printf("tqrelay %d: recovered state from checkpoint generation %d\n", *relayID, gen)
		}
		fmt.Printf("tqrelay %d: checkpointing to %s every %d round(s)\n", *relayID, *ckptDir, max(*ckptEvry, 1))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("tqrelay %d: shutting down\n", *relayID)
	return nil
}
