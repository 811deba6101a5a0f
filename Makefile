# Developer/CI entry points. `make check` is the gate: build, vet, the
# full test suite under the race detector, a short fuzz pass over the
# protocol decode paths, and a smoke run of the parallel ingest benchmarks
# (100 iterations — checks they run, not their numbers).

GO ?= go

# Seconds of fuzzing per target in fuzz-short. The committed corpus under
# internal/*/testdata/fuzz seeds each run with protocol-shaped inputs.
FUZZTIME ?= 30s

.PHONY: check build lint vet test test-race race crash-test tree-test chaos-test chaos-soak store-test fuzz-short bench-smoke bench bench-short bench-diff bench-scaling bench-tree bench-store

check: build lint race crash-test tree-test chaos-test store-test fuzz-short bench-smoke bench-short

build:
	$(GO) build ./...

# Static gate: go vet plus a gofmt diff check (fails listing the
# unformatted files).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fault matrix and the faultnet fabric must stay deterministic and
# race-clean; this is the acceptance gate for the failure-model tests.
test-race:
	$(GO) test -race ./internal/transport ./internal/faultnet

# The whole suite under the race detector, plus, by name, the guard that a
# push round stays O(p + n) sketch operations (no join per destination).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run '^TestJoinIsLinearPerRound$$' ./internal/core

# The crash-restart matrix: process-death scenarios against the durable
# checkpoint store, plus the store's own corruption/fallback tests, all
# under the race detector.
crash-test:
	$(GO) test -race -run '^TestFaultCrash' -count=1 ./internal/transport
	$(GO) test -race ./internal/durable

# The aggregation-tree and shard matrices: relay crash/restart/partition
# scenarios, shard failover, live tree-vs-flat and sharded-vs-flat
# equality, the cluster-sim topology property tests, and the relay wire
# goldens — the correctness gate for hierarchical deployments. The
# handshake-rejection table and the mid-fan-out rejoin test run the
# shared child-facing half under both of its users, center and relay.
tree-test:
	$(GO) test -race -count=1 \
		-run '^(TestFaultRelay|TestRelayTreeEqualsFlatLive|TestShardedEqualsFlat|TestFaultShardFailover|TestGoldenRelay|TestHelloMismatchDropsConnection|TestRedialDuringFanOutGetsCurrentRound)' \
		./internal/transport
	$(GO) test -race -count=1 -run 'Tree|Topology' ./internal/cluster ./internal/core

# The chaos gate: the deterministic multi-fault soak matrix — 3 fixed
# seeds x both designs x all four topology classes (flat, random tree,
# 2-shard, tree-of-shards), >=25 faults per run, exact-oracle and
# coverage-algebra audits after every heal — under the race detector.
# Seeds are fixed so failures replay exactly (see cmd/tqchaos -seed).
chaos-test:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/chaos

# Open-ended randomized soak: runs the same engine with fresh seeds for
# a time budget (or until CHAOS_EPOCHS epochs survive). Every run prints
# a benchmark-shaped ChaosSoak row benchjson folds into
# chaos_epochs_survived; a failing seed prints its exact replay command.
CHAOS_SEED ?= 1
CHAOS_SOAK ?= 2m
chaos-soak:
	$(GO) run ./cmd/tqchaos -seed $(CHAOS_SEED) -duration $(CHAOS_SOAK) | tee chaos_soak.txt
	$(GO) run ./cmd/benchjson -o chaos_soak.json < chaos_soak.txt

# The epoch-log store and retrospective-query gate: the log's own
# format/retention/torn-tail/concurrency tests, the core replay engine,
# and the end-to-end oracle matrix (-at/-range bit-identical to recorded
# live answers across flat/tree/sharded topologies, both designs, both
# spread backends, and a restart that rebuilds the index from disk),
# all under the race detector.
store-test:
	$(GO) test -race -count=1 -run '^(TestLog|TestOpenRejects)' ./internal/durable
	$(GO) test -race -count=1 -run '^TestHistory' ./internal/core
	$(GO) test -race -count=1 -run '^TestHistory' ./internal/transport

# Short fuzz pass over every decode surface a peer can reach: the protocol
# streams (center- and point-side), the Push apply path, the sketch and
# trace binary decoders (each sketch has one encoding; an accepted input
# must re-encode to the same bytes, and the hll compact target covers the
# register layouts the wire and checkpoints carry), and the SWAR merge
# against its scalar model.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCenterConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzPointConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzPushApply$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzRelayConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/rskt
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/countmin
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/vhll
	$(GO) test -run '^$$' -fuzz '^FuzzMergeMax$$' -fuzztime $(FUZZTIME) ./internal/hll
	$(GO) test -run '^$$' -fuzz '^FuzzCompact$$' -fuzztime $(FUZZTIME) ./internal/hll
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz . -fuzztime $(FUZZTIME) ./internal/trace

bench-smoke:
	$(GO) test -run '^$$' -bench 'ThroughputParallel' -benchtime=100x .

# Benchmark bookkeeping: runs pipe through cmd/benchjson into JSON
# documents so perf claims ship with evidence. BENCH_PR5.json is the
# committed trajectory for the hot-path/codec PR (regenerate with
# `make bench BENCH_JSON=BENCH_PR5.json BENCH_BASELINE=old_bench.txt`).
BENCH_JSON ?= bench.json
BENCH_BASELINE ?=

# Full benchmark pass (Tables I/II, the figure pipelines, and the upload
# codec sizes), converted to $(BENCH_JSON).
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1s . | tee bench.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) \
		$(if $(BENCH_BASELINE),-baseline $(BENCH_BASELINE)) < bench.txt

# Sub-minute advisory pass over the hot-path microbenches (record, batch,
# query, upload codec, epoch boundary); writes bench_short.json. Fixed
# iteration counts keep it fast — the numbers are advisory (compare with
# `make bench-diff`), the gate is only that every benchmark still runs.
bench-short:
	$(GO) test -run '^$$' \
		-bench '^Benchmark(Table2Record|ThroughputParallel|Table1Query(Two|Three)SketchLocal|Upload(Spread|Size)|EpochBoundary)' \
		-benchtime=1000x . | tee bench_short.txt
	$(GO) run ./cmd/benchjson -o bench_short.json < bench_short.txt

# Parallel-ingest scaling gate: runs the private-recorder benchmarks at
# 1/2/4/8 workers and fails unless the 4-or-more-worker aggregate rate
# reaches SCALING_MIN x the single-worker rate. The gated agg-packets/s
# metric is CPU-projected from per-worker thread CPU time, so the gate is
# meaningful even on a core-limited box (Linux only; elsewhere the metric
# is absent and the gate errors rather than passing vacuously). The
# iteration count is split across the workers, and each worker first-touches
# a fresh delta sketch inside its timed loop: 2M iterations leave the
# 8-worker row 250k packets per worker to amortize that over.
SCALING_MIN ?= 2.0
bench-scaling:
	$(GO) test -run '^$$' -bench 'ThroughputParallelPipeline' -benchtime=2000000x . | tee bench_scaling.txt
	$(GO) run ./cmd/benchjson -o bench_scaling.json < bench_scaling.txt
	$(GO) run ./cmd/benchjson -scaling-gate $(SCALING_MIN) bench_scaling.json

# Relay fan-in evidence: center-side ingest cost per epoch, p leaf
# points uploading directly vs through a 2-level tree of 8 relays, at
# p=64/256. benchjson pairs the topo=flat/topo=tree rows into its
# relay_fanin_speedup map; BENCH_PR7.json is the committed trajectory
# (regenerate with `make bench-tree BENCH_TREE_JSON=BENCH_PR7.json`).
BENCH_TREE_JSON ?= bench_tree.json
bench-tree:
	$(GO) test -run '^$$' -bench '^BenchmarkRelayFanIn$$' -benchtime=200x \
		./internal/transport | tee bench_tree.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_TREE_JSON) \
		-note "center-side ingest per epoch, flat vs 2-level tree (8 relays)" < bench_tree.txt

# Epoch-log store evidence: replay latency vs window length and cache
# temperature (cold = full batched-read replay, warm = primed replay
# cache, slide = per-step cost of a sliding window), plus the per-cell
# append and lookup costs the log adds to the ingest path. benchjson
# pairs the cold/warm rows into its store_warm_speedup map and the
# -store-gate check fails unless every window's warm query is
# STORE_MIN x cheaper than its cold one. BENCH_PR9.json (cold replay
# only) and BENCH_PR10.json (cold/warm/slide) are the committed
# trajectories (regenerate with
# `make bench-store BENCH_STORE_JSON=BENCH_PR10.json`).
BENCH_STORE_JSON ?= bench_store.json
STORE_MIN ?= 5.0
bench-store:
	$(GO) test -run '^$$' -bench '^BenchmarkHistoricalQuery$$' -benchtime=50x \
		./internal/transport | tee bench_store.txt
	$(GO) test -run '^$$' -bench '^BenchmarkStore(Append|Get)$$' -benchtime=5000x \
		./internal/durable | tee -a bench_store.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_STORE_JSON) \
		-note "historical-query replay: cold/warm/slide vs window length; epoch-log append/lookup cost per cell" < bench_store.txt
	$(GO) run ./cmd/benchjson -store-gate $(STORE_MIN) $(BENCH_STORE_JSON)

# benchcmp-style ns/op comparison of two benchjson documents, e.g.
# `make bench-short && make bench-diff OLD=BENCH_PR5.json NEW=bench_short.json`.
OLD ?= BENCH_PR5.json
NEW ?= bench_short.json
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)
