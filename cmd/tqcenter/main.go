// Command tqcenter runs a live measurement center: it accepts TCP
// connections from tqpoint agents, collects their per-epoch sketch
// uploads, performs the spatial-temporal join, and pushes each point its
// size-customized networkwide aggregate.
//
// Usage:
//
//	tqcenter -addr :7070 -kind spread -n 10 -widths 0:1638,1:3276,2:6552
//	tqcenter -addr :7070 -kind size -n 10 -widths 0:16384,1:16384,2:16384
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
		fmt.Fprintln(os.Stderr, "tqcenter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tqcenter", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "listen address")
		kind       = fs.String("kind", "size", `design: "size" or "spread"`)
		sketch     = fs.String("sketch", "rskt", `spread sketch backend: "rskt" or "vhll" (must match the points' -sketch)`)
		n          = fs.Int("n", 10, "epochs per window (the paper's n)")
		widths     = fs.String("widths", "", "topology as id:width pairs, e.g. 0:1638,1:3276,2:6552")
		m          = fs.Int("m", 128, "HLL registers per estimator (spread)")
		d          = fs.Int("d", 4, "CountMin rows (size)")
		seed       = fs.Uint64("seed", 42, "cluster-wide hash seed")
		weights    = fs.String("weights", "", "child weights as id:weight pairs (subtree leaf counts behind tqrelay children; default 1 each)")
		shard      = fs.String("shard", "", `this center's shard as "i/n" in a flow-sharded deployment (default unsharded)`)
		delta      = fs.Bool("delta", false, "require per-epoch delta uploads (mandatory when size-design children connect through tqrelay)")
		enhance    = fs.Bool("enhance", false, "push the Section IV-D enhancement")
		ckptDir    = fs.String("checkpoint-dir", "", "write atomic checkpoints of the window store here and recover from them on restart")
		ckptEvry   = fs.Int("checkpoint-every", 1, "push rounds between checkpoints (with -checkpoint-dir)")
		storeDir   = fs.String("store-dir", "", "append every accepted upload to a time-indexed epoch log here, enabling retrospective T-queries (tqquery -at/-range via -history-addr)")
		retain     = fs.Int("retain", 0, "epochs of history to keep in the store, 0 = unbounded (with -store-dir; eviction is whole-segment)")
		storeMax   = fs.Int64("store-max-bytes", 0, "store size budget in bytes, 0 = unbounded (with -store-dir; oldest segments evicted first)")
		replayCch  = fs.Int64("replay-cache-bytes", 0, "historical-replay cache budget in bytes (with -store-dir; 0 = 64 MiB default, negative disables); each cached epoch costs the bytes it holds: 64 B, 8 B per joined point and its partial cell or decoded sketch")
		histAddr   = fs.String("history-addr", "", "serve the query RPC (live + historical forms) on this address, e.g. :7071")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		healthAddr = fs.String("health", "", "serve /healthz + /readyz on this address, e.g. localhost:8070")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		a, err := diag.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Printf("tqcenter: pprof on http://%s/debug/pprof/\n", a)
	}
	topo, err := parseWidths(*widths)
	if err != nil {
		return err
	}
	wts, err := topoflag.Pairs(*weights, "weight")
	if err != nil {
		return err
	}
	shardIdx, shardN, err := topoflag.Shard(*shard)
	if err != nil {
		return err
	}
	srv, err := transport.ServeCenter(transport.CenterConfig{
		Addr:             *addr,
		Kind:             transport.Kind(*kind),
		Sketch:           *sketch,
		WindowN:          *n,
		Widths:           topo,
		Weights:          wts,
		M:                *m,
		D:                *d,
		Seed:             *seed,
		Shard:            shardIdx,
		DeltaUploads:     *delta,
		Enhance:          *enhance,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  *ckptEvry,
		StoreDir:         *storeDir,
		RetainEpochs:     *retain,
		StoreMaxBytes:    *storeMax,
		ReplayCacheBytes: *replayCch,
		HistoryAddr:      *histAddr,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if *healthAddr != "" {
		// Ready = at least one child connected. /readyz carries the
		// wedge evidence either way: connected children, the newest
		// round's epoch, and how long ago it was pushed.
		a, err := diag.ServeHealth(*healthAddr, func() diag.Health {
			st := srv.Stats()
			mergeAge := -1.0
			if !st.LastRoundAt.IsZero() {
				mergeAge = time.Since(st.LastRoundAt).Seconds()
			}
			detail := map[string]any{
				"connected_points": st.ConnectedPoints,
				"last_push_epoch":  st.LastPushEpoch,
				"last_merge_age_s": mergeAge,
				"rounds_pushed":    st.RoundsPushed,
				"evictions":        st.Evictions,
			}
			if st.StoreEnabled {
				// Store health: the retained-epoch span bounds what
				// retrospective queries can answer; a growing error
				// counter or a stale compaction age is the operator's
				// early warning before history quietly stops accruing.
				compactAge := -1.0
				if !st.StoreLastCompaction.IsZero() {
					compactAge = time.Since(st.StoreLastCompaction).Seconds()
				}
				detail["store_first_epoch"] = st.StoreFirstEpoch
				detail["store_last_epoch"] = st.StoreLastEpoch
				detail["store_bytes"] = st.StoreBytes
				detail["store_segments"] = st.StoreSegments
				detail["store_appends"] = st.StoreAppends
				detail["store_partial_appends"] = st.StorePartialAppends
				detail["store_append_errors"] = st.StoreAppendErrors
				// Cold replayed epochs by read path: one partial cell, or
				// a join of the point cells when the partial is missing
				// or no longer matches them.
				detail["replay_epochs_from_partial"] = st.ReplayEpochsFromPartial
				detail["replay_epochs_from_cells"] = st.ReplayEpochsFromCells
				detail["store_compactions"] = st.StoreCompactions
				detail["store_compaction_errors"] = st.StoreCompactionErrors
				detail["store_last_compaction_age_s"] = compactAge
			}
			if st.ReplayCacheEnabled {
				// Replay-cache health: the hit ratio tells whether repeated
				// retrospective queries land warm. A miss is a cold epoch:
				// never cached, evicted by the budget, or cached over ids
				// the log no longer holds exactly (a late cell, a failed
				// append, a compaction).
				detail["replay_cache_hits"] = st.ReplayCacheHits
				detail["replay_cache_misses"] = st.ReplayCacheMisses
				detail["replay_cache_evictions"] = st.ReplayCacheEvictions
				detail["replay_cache_bytes"] = st.ReplayCacheBytes
				detail["replay_cache_entries"] = st.ReplayCacheEntries
			}
			return diag.Health{
				Ready:  st.ConnectedPoints > 0,
				Detail: detail,
			}
		})
		if err != nil {
			return err
		}
		fmt.Printf("tqcenter: health on http://%s/readyz\n", a)
	}
	fmt.Printf("tqcenter: %s design, n=%d, %d points, listening on %s\n",
		*kind, *n, len(topo), srv.Addr())
	if shardN > 1 {
		fmt.Printf("tqcenter: shard %d of %d (flow partition keyed by seed %d)\n", shardIdx, shardN, *seed)
	}
	if *ckptDir != "" {
		if gen := srv.Stats().RestoredGeneration; gen > 0 {
			fmt.Printf("tqcenter: recovered window from checkpoint generation %d\n", gen)
		}
		fmt.Printf("tqcenter: checkpointing to %s every %d round(s)\n", *ckptDir, max(*ckptEvry, 1))
	}
	if *storeDir != "" {
		st := srv.Stats()
		if st.StoreEntries > 0 {
			fmt.Printf("tqcenter: epoch log at %s holds epochs %d..%d (%d cells, %d bytes)\n",
				*storeDir, st.StoreFirstEpoch, st.StoreLastEpoch, st.StoreEntries, st.StoreBytes)
		} else {
			fmt.Printf("tqcenter: epoch log at %s (empty)\n", *storeDir)
		}
	}
	if a := srv.HistoryQueryAddr(); a != nil {
		fmt.Printf("tqcenter: history queries on %s\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("tqcenter: shutting down")
	return nil
}

// parseWidths parses "0:1638,1:3276" into a topology map.
func parseWidths(s string) (map[int]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -widths (e.g. 0:1638,1:1638,2:1638)")
	}
	return topoflag.Pairs(s, "width")
}
