package chaos

import (
	"fmt"
	"testing"

	"repro/internal/transport"
)

// quietLogf keeps chaos narration out of test output unless -v digs in.
func chaosLogf(t *testing.T) func(string, ...any) {
	if testing.Verbose() {
		return t.Logf
	}
	return func(string, ...any) {}
}

func runChaos(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Logf = chaosLogf(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run (seed %d, class %s, kind %s): %v\nresult so far: %+v",
			cfg.Seed, cfg.Class, cfg.Kind, err, res)
	}
	if res.Faults < 25 {
		t.Fatalf("run injected only %d faults, want >= 25 (%+v)", res.Faults, res.FaultKinds)
	}
	if res.Checks < res.Phases {
		t.Fatalf("run passed %d audits over %d phases — a phase went unaudited", res.Checks, res.Phases)
	}
	return res
}

// TestChaosMatrix is the acceptance matrix: three fixed seeds x both
// designs x every topology class, each run injecting >= 25 randomized
// faults and auditing exactness + coverage + liveness after every heal.
// Short mode keeps one seed and the two cheapest classes so plain
// `go test ./...` stays fast; `make chaos-test` runs the full matrix.
func TestChaosMatrix(t *testing.T) {
	seeds := []int64{11, 22, 33}
	classes := Classes
	if testing.Short() {
		seeds = seeds[:1]
		classes = []Class{ClassFlat, ClassTree}
	}
	for _, seed := range seeds {
		for _, class := range classes {
			for _, kind := range []transport.Kind{transport.KindSpread, transport.KindSize} {
				seed, class, kind := seed, class, kind
				t.Run(fmt.Sprintf("%s/%s/seed%d", class, kind, seed), func(t *testing.T) {
					t.Parallel()
					res := runChaos(t, Config{Seed: seed, Kind: kind, Class: class})
					if res.Epochs < int64(chaosWindowN+2) {
						t.Fatalf("run survived only %d epochs", res.Epochs)
					}
				})
			}
		}
	}
}

// TestChaosDeterministic pins the engine's reproducibility contract:
// the same Config yields the identical fault schedule and epoch count.
func TestChaosDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Kind: transport.KindSpread, Class: ClassTree, Phases: 3, MinFaults: 6}
	a := runChaosLight(t, cfg)
	b := runChaosLight(t, cfg)
	if a.Epochs != b.Epochs || a.Faults != b.Faults || a.Phases != b.Phases {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if fmt.Sprint(a.FaultKinds) != fmt.Sprint(b.FaultKinds) {
		t.Fatalf("same seed drew different faults:\n%v\n%v", a.FaultKinds, b.FaultKinds)
	}
}

func runChaosLight(t *testing.T, cfg Config) Result {
	t.Helper()
	cfg.Logf = chaosLogf(t)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return res
}
