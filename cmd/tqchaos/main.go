// Command tqchaos soaks the transport under the deterministic chaos
// engine (internal/chaos): randomized multi-fault schedules over
// randomized topologies, with exactness, coverage, and liveness audited
// after every heal. One invocation sweeps the class x design matrix
// starting from -seed, bumping the seed each run, until the -epochs or
// -duration budget is spent (with neither set it makes a single pass).
//
// Output is one line per run on stdout, in `go test -bench` form: the
// run's class, design and seed, its wall time, the cluster epochs it
// survived and the faults it injected. The sweep's totals go to stderr:
//
//	tqchaos -seed 1 -duration 5m | tee chaos_soak.txt
//
// A non-zero exit means a run found a real violation; the failing seed
// and configuration are in the error, and replaying them reproduces the
// failure exactly.
//
// Usage:
//
//	tqchaos -seed 42                      # one pass over the matrix
//	tqchaos -seed 1 -epochs 5000          # soak until 5000 cluster epochs
//	tqchaos -seed 1 -duration 30m         # soak for half an hour
//	tqchaos -class tree -kind spread -v
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tqchaos:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tqchaos", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "base seed; each run in the sweep uses the next seed")
		epochs   = fs.Int64("epochs", 0, "stop once this many cumulative cluster epochs survived (0 = no epoch budget)")
		duration = fs.Duration("duration", 0, "stop after this much wall time (0 = no time budget)")
		class    = fs.String("class", "all", `topology class: "flat", "tree", "shard", "treeshard", or "all"`)
		kind     = fs.String("kind", "all", `design: "size", "spread", or "all"`)
		phases   = fs.Int("phases", 0, "minimum fault phases per run (0 = engine default)")
		verbose  = fs.Bool("v", false, "narrate fault injection to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var classes []chaos.Class
	if *class == "all" {
		classes = chaos.Classes
	} else {
		classes = []chaos.Class{chaos.Class(*class)}
	}
	var kinds []transport.Kind
	switch *kind {
	case "all":
		kinds = []transport.Kind{transport.KindSpread, transport.KindSize}
	case "size":
		kinds = []transport.Kind{transport.KindSize}
	case "spread":
		kinds = []transport.Kind{transport.KindSpread}
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}

	var stopAt time.Time
	if *duration > 0 {
		stopAt = time.Now().Add(*duration)
	}
	budgetSpent := func(total int64) bool {
		if *epochs > 0 && total >= *epochs {
			return true
		}
		if !stopAt.IsZero() && !time.Now().Before(stopAt) {
			return true
		}
		// With no budget at all, the caller's loop makes a single pass.
		return false
	}

	var total, faults int64
	runs := 0
	s := *seed
	for pass := 0; ; pass++ {
		for _, cl := range classes {
			for _, kd := range kinds {
				start := time.Now()
				res, err := chaos.Run(chaos.Config{
					Seed: s, Kind: kd, Class: cl,
					Phases: *phases, Logf: logf,
				})
				if err != nil {
					return fmt.Errorf("seed %d, class %s, kind %s: %w (replay: tqchaos -seed %d -class %s -kind %s)",
						s, cl, kd, err, s, cl, kd)
				}
				elapsed := time.Since(start)
				fmt.Printf("BenchmarkChaosSoak/class=%s/kind=%s/seed=%d \t%8d\t%12d ns/op\t%12d epochs_survived\t%8d faults\n",
					cl, kd, s, 1, elapsed.Nanoseconds(), res.Epochs, res.Faults)
				total += res.Epochs
				faults += int64(res.Faults)
				runs++
				s++
				if budgetSpent(total) {
					fmt.Fprintf(os.Stderr, "tqchaos: %d runs, %d epochs survived, %d faults injected\n", runs, total, faults)
					return nil
				}
			}
		}
		if *epochs == 0 && stopAt.IsZero() {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "tqchaos: %d runs, %d epochs survived, %d faults injected\n", runs, total, faults)
	return nil
}
