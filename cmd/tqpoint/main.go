// Command tqpoint runs a live measurement point: it records traffic
// locally (synthetic traffic, or a trace file's packets for its point id),
// uploads its sketch to the center at every epoch boundary, merges the
// center's networkwide aggregates, and periodically answers sample
// networkwide T-queries from local memory, printing them.
//
// Usage:
//
//	tqpoint -addr 127.0.0.1:7070 -point 0 -kind size -w 16384 -epoch 6s -pps 50000
//	tqpoint -addr 127.0.0.1:7070 -point 1 -kind spread -w 1638 -trace trace.bin
//
// With -trace, epochs are driven by the trace's virtual timestamps (a
// recorded 30-minute trace replays as fast as the center keeps up); with
// synthetic traffic, epochs follow the wall clock.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/durable"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/window"
)

// recordBatchSize is how many packets accumulate locally before one
// RecordBatch call records them (one lock acquisition per batch instead of
// one per packet).
const recordBatchSize = 1024

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tqpoint:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tqpoint", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7070", "center address")
		point      = fs.Int("point", 0, "this point's id")
		kind       = fs.String("kind", "size", `design: "size" or "spread"`)
		sketch     = fs.String("sketch", "rskt", `spread sketch backend: "rskt" or "vhll" (must match the center's -sketch)`)
		w          = fs.Int("w", 16384, "sketch width (must match the center's topology)")
		m          = fs.Int("m", 128, "HLL registers per estimator (spread)")
		d          = fs.Int("d", 4, "CountMin rows (size)")
		seed       = fs.Uint64("seed", 42, "cluster-wide hash seed")
		shard      = fs.String("shard", "", `dial shard i of an n-way flow-sharded center deployment, as "i/n"; records only the flows the shard owns (default unsharded)`)
		delta      = fs.Bool("delta", false, "upload per-epoch deltas instead of cumulative sketches (mandatory behind a tqrelay for the size design; must match the center's -delta)")
		epoch      = fs.Duration("epoch", 6*time.Second, "epoch length (synthetic traffic mode)")
		pps        = fs.Int("pps", 20_000, "synthetic traffic rate, packets/s")
		ingestW    = fs.Int("ingest-workers", 1, "parallel ingest workers (synthetic traffic mode): one generator goroutine each with its own ingest pipe, sharing -pps")
		flows      = fs.Int("flows", 5_000, "synthetic traffic distinct flows")
		traceFile  = fs.String("trace", "", "replay this trace file instead of synthetic traffic")
		queries    = fs.Int("queries", 3, "sample networkwide queries printed per epoch")
		queryAddr  = fs.String("query-addr", "", "also serve networkwide T-queries on this TCP address (see cmd/tqquery)")
		stateFile  = fs.String("state", "", "load protocol state from this file on start (if present) and save it on shutdown")
		ckptDir    = fs.String("checkpoint-dir", "", "write an atomic checkpoint every epoch and recover from it on restart (supersedes -state)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address, e.g. localhost:6060")
		healthAddr = fs.String("health", "", "serve /healthz + /readyz on this address, e.g. localhost:8072")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		a, err := diag.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		fmt.Printf("tqpoint %d: pprof on http://%s/debug/pprof/\n", *point, a)
	}

	shardIdx, shardN, err := parseShard(*shard)
	if err != nil {
		return err
	}
	// owns filters traffic to the flows this shard's partition slice holds
	// (everything, when unsharded). One tqpoint process per (point, shard)
	// pair keeps each shard center's view disjoint; cmd/tqquery routes a
	// flow's queries to its owning shard with the same seed-keyed hash.
	part := core.NewFlowPartition(*seed, shardN)
	owns := func(f uint64) bool { return shardN == 1 || part.Shard(f) == shardIdx }

	pc, err := transport.DialPoint(transport.PointConfig{
		Addr: *addr, Point: *point, Kind: transport.Kind(*kind),
		Sketch: *sketch, W: *w, M: *m, D: *d, Seed: *seed,
		Shard: shardIdx, DeltaUploads: *delta,
		CheckpointDir: *ckptDir,
	})
	if err != nil {
		return err
	}
	defer pc.Close()
	if *healthAddr != "" {
		// A point is ready when its uploads are landing: the center's
		// newest push can trail the local epoch by at most one round
		// (the in-flight one). A larger lag means the center stopped
		// hearing from us — wedged link, eviction, or a dead center.
		a, err := diag.ServeHealth(*healthAddr, func() diag.Health {
			st := pc.Stats()
			cov := pc.Coverage()
			lag := st.Epoch - st.LastPushEpoch
			return diag.Health{
				Ready: lag <= 1,
				Detail: map[string]any{
					"epoch":           st.Epoch,
					"last_push_epoch": st.LastPushEpoch,
					"epoch_lag":       lag,
					"coverage":        cov.Fraction(),
					"uploads_dropped": st.UploadsDropped,
					"write_timeouts":  st.WriteTimeouts,
				},
			}
		})
		if err != nil {
			return err
		}
		fmt.Printf("tqpoint %d: health on http://%s/readyz\n", *point, a)
	}
	fmt.Printf("tqpoint %d: connected to %s (%s design, w=%d)\n", *point, *addr, *kind, *w)
	if shardN > 1 {
		fmt.Printf("tqpoint %d: shard %d/%d (recording only this shard's flows)\n", *point, shardIdx, shardN)
	}
	if *ckptDir != "" && pc.Epoch() > 1 {
		fmt.Printf("tqpoint %d: recovered checkpoint (epoch %d)\n", *point, pc.Epoch())
	}

	if *stateFile != "" {
		if f, err := os.Open(*stateFile); err == nil {
			loadErr := pc.LoadState(f)
			f.Close()
			if loadErr != nil {
				return fmt.Errorf("load state: %w", loadErr)
			}
			fmt.Printf("tqpoint %d: restored state (epoch %d)\n", *point, pc.Epoch())
		}
		defer func() {
			// Atomic replace: encoding into the live file would destroy the
			// previous good state the moment a save fails or is cut short.
			var buf bytes.Buffer
			if err := pc.SaveState(&buf); err != nil {
				fmt.Fprintf(os.Stderr, "tqpoint: save state: %v\n", err)
				return
			}
			if err := durable.WriteFileAtomic(*stateFile, buf.Bytes(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "tqpoint: save state: %v\n", err)
			}
		}()
	}

	if *queryAddr != "" {
		// Local network functions (or cmd/tqquery) can ask this point for
		// networkwide answers; each query reads only local memory and
		// reports the window coverage behind it (tqquery -coverage).
		qsrv, err := transport.ServeQueriesCov(*queryAddr, func(f uint64) (float64, core.Coverage) {
			if *kind == "spread" {
				v, cov, err := pc.QuerySpreadWithCoverage(f)
				if err != nil {
					return 0, core.Coverage{}
				}
				return v, cov
			}
			v, cov, err := pc.QuerySizeWithCoverage(f)
			if err != nil {
				return 0, core.Coverage{}
			}
			return float64(v), cov
		})
		if err != nil {
			return err
		}
		defer qsrv.Close()
		fmt.Printf("tqpoint %d: serving T-queries on %s\n", *point, qsrv.Addr())
	}

	report := func() {
		st := pc.Stats()
		cov := pc.Coverage()
		fmt.Printf("tqpoint %d: epoch %d done (pushes applied=%d late=%d dup=%d; "+
			"uploads retried=%d dropped=%d; window coverage %d/%d = %.0f%%)\n",
			*point, pc.Epoch()-1, st.PushesApplied, st.PushesLate, st.PushesDuplicate,
			st.UploadsRetried, st.UploadsDropped,
			cov.EpochsMerged, cov.EpochsExpected, cov.Fraction()*100)
		if !cov.Full() {
			fmt.Printf("tqpoint %d: DEGRADED — answers cover %.0f%% of the window\n",
				*point, cov.Fraction()*100)
		}
		rng := rand.New(rand.NewSource(int64(pc.Epoch())))
		for i := 0; i < *queries; i++ {
			f := uint64(rng.Intn(*flows))
			if *kind == "spread" {
				v, err := pc.QuerySpread(f)
				if err == nil {
					fmt.Printf("  networkwide spread(flow %d) ~ %.0f\n", f, v)
				}
			} else {
				v, err := pc.QuerySize(f)
				if err == nil {
					fmt.Printf("  networkwide size(flow %d) ~ %d\n", f, v)
				}
			}
		}
	}

	// A center outage must not kill the point: the epoch still ends
	// locally (the upload is buffered, capped at one window), queries keep
	// answering with degraded coverage, and every epoch boundary retries
	// the reconnect until the center is back.
	endEpoch := func() error {
		err := pc.EndEpoch()
		if err == nil {
			return nil
		}
		fmt.Fprintf(os.Stderr, "tqpoint %d: upload failed (%v), redialing\n", *point, err)
		if rerr := pc.Redial(); rerr != nil {
			fmt.Fprintf(os.Stderr, "tqpoint %d: center still unreachable (%v), continuing degraded\n", *point, rerr)
		} else {
			fmt.Printf("tqpoint %d: reconnected to %s\n", *point, *addr)
		}
		return nil
	}

	if *traceFile != "" {
		return replayTrace(pc, *traceFile, *point, *epoch, owns, endEpoch, report)
	}

	// Synthetic traffic mode: wall-clock epochs, Zipf-ish flow draws.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*epoch)
	defer ticker.Stop()

	if *ingestW > 1 {
		// Parallel data plane: each worker owns a private ingest pipe and
		// its own traffic source; the main goroutine keeps the epoch clock
		// and reporting.
		done := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < *ingestW; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pipe := pc.NewIngestPipe()
				defer pipe.Close()
				rng := rand.New(rand.NewSource(int64(*point)*1009 + int64(i) + 1))
				zipf := rand.NewZipf(rng, 1.2, 1, uint64(*flows-1))
				perTick := time.Duration(*ingestW) * time.Second / time.Duration(max(*pps, 1))
				src := time.NewTicker(max(perTick, time.Microsecond))
				defer src.Stop()
				for {
					select {
					case <-src.C:
						if f := zipf.Uint64(); owns(f) {
							pipe.Record(f, rng.Uint64()%1024)
						}
					case <-done:
						return
					}
				}
			}(i)
		}
		fmt.Printf("tqpoint %d: %d ingest workers\n", *point, *ingestW)
		for {
			select {
			case <-ticker.C:
				if err := endEpoch(); err != nil {
					close(done)
					wg.Wait()
					return err
				}
				report()
			case <-stop:
				close(done)
				wg.Wait()
				fmt.Printf("tqpoint %d: shutting down\n", *point)
				return nil
			}
		}
	}

	perTick := time.Second / time.Duration(max(*pps, 1))
	traffic := time.NewTicker(max(perTick, time.Microsecond))
	defer traffic.Stop()
	rng := rand.New(rand.NewSource(int64(*point) + 1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(*flows-1))
	batch := make([]core.SpreadPacket, 0, recordBatchSize)
	flush := func() {
		if len(batch) > 0 {
			pc.RecordBatch(batch)
			batch = batch[:0]
		}
	}
	for {
		select {
		case <-traffic.C:
			if f := zipf.Uint64(); owns(f) {
				batch = append(batch, core.SpreadPacket{Flow: f, Elem: rng.Uint64() % 1024})
			}
			if len(batch) >= recordBatchSize {
				flush()
			}
		case <-ticker.C:
			flush()
			if err := endEpoch(); err != nil {
				return err
			}
			report()
		case <-stop:
			flush()
			fmt.Printf("tqpoint %d: shutting down\n", *point)
			return nil
		}
	}
}

// replayTrace feeds the trace file's packets for this point (and, in a
// sharded deployment, for this shard's flow slice), rolling epochs by
// virtual time.
func replayTrace(pc *transport.PointClient, path string, point int, epoch time.Duration, owns func(uint64) bool, endEpoch func() error, report func()) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	win := window.Config{T: epoch * 10, N: 10} // only epoch arithmetic is used
	cur := int64(1)
	batch := make([]core.SpreadPacket, 0, recordBatchSize)
	flush := func() {
		if len(batch) > 0 {
			pc.RecordBatch(batch)
			batch = batch[:0]
		}
	}
	for {
		p, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for k := win.EpochOf(p.TS); cur < k; cur++ {
			flush()
			if err := endEpoch(); err != nil {
				return err
			}
			report()
		}
		if p.Point == point && owns(p.Flow) {
			batch = append(batch, core.SpreadPacket{Flow: p.Flow, Elem: p.Elem})
			if len(batch) >= recordBatchSize {
				flush()
			}
		}
	}
	flush()
	return endEpoch()
}

// parseShard parses "i/n" into (index, count); "" means unsharded (0, 1).
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 1, nil
	}
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf(`bad -shard %q (want "i/n", e.g. 0/2)`, s)
	}
	i, err := strconv.Atoi(is)
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard index %q: %w", is, err)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard count %q: %w", ns, err)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %d/%d out of range", i, n)
	}
	return i, n, nil
}
