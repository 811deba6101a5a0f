# Developer/CI entry points. `make check` is the gate: build, vet and
# gofmt, the full test suite under the race detector (which includes the
# bench/ smoke test), the crash, tree, chaos and store matrices, and a
# short fuzz pass over every decode surface.

GO ?= go

# Seconds of fuzzing per target in fuzz-short. The committed corpus under
# internal/*/testdata/fuzz seeds each run with protocol-shaped inputs.
FUZZTIME ?= 30s

.PHONY: check build lint vet test test-race race crash-test tree-test chaos-test chaos-soak store-test fuzz-short bench

check: build lint race crash-test tree-test chaos-test store-test fuzz-short

build:
	$(GO) build ./...

# Static gate: go vet, on amd64 (which checks the assembly frames of
# internal/hll's register kernels) and on arm64 (which keeps the portable
# kernels every other architecture builds compiling), a gofmt diff check
# (fails listing the unformatted files), a guard that encoding/gob stays
# retired: every hop and every checkpoint speaks the binary frame
# (internal/transport/frame.go), so the gate fails listing any .go file,
# test or not, that imports gob; a guard that the transport's Kind
# decision stays in one switch: it fails listing any non-test
# internal/transport file other than backend.go that calls a sketch
# constructor; and a guard that every deployed node runs one spread
# sketch, rSkt2: it fails listing any non-test .go file under
# internal/transport, internal/chaos or cmd/ that imports internal/vhll,
# which only the estimator ablations and the cluster simulator run.
lint: vet
	GOARCH=arm64 $(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rlE --include='*.go' --exclude-dir=.bench_build \
		'^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"encoding/gob"[[:space:]]*(//.*)?$$' . || true)"; \
		if [ -n "$$out" ]; then echo "encoding/gob is retired; imported by:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude=backend.go \
		'(rskt|countmin)\.New\(' internal/transport || true)"; \
		if [ -n "$$out" ]; then echo "sketch backends are built only in internal/transport/backend.go; constructors called in:"; \
		echo "$$out"; exit 1; fi
	@out="$$(grep -rlE --include='*.go' --exclude='*_test.go' \
		'^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"repro/internal/vhll"[[:space:]]*(//.*)?$$' \
		internal/transport internal/chaos cmd || true)"; \
		if [ -n "$$out" ]; then echo "deployed nodes run rSkt2 only; internal/vhll imported by:"; \
		echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The fault matrix and the faultnet fabric must stay deterministic and
# race-clean; this is the acceptance gate for the failure-model tests.
test-race:
	$(GO) test -race ./internal/transport ./internal/faultnet

# The whole suite under the race detector, plus, by name, the guards that a
# push round stays O(p + n) sketch operations (no join per destination),
# that an epoch boundary merges each dirty ingest lane once per kept sketch,
# that a history window's union estimate stays bit-identical to merging its
# partials, that a per-epoch partial owns its sketch, that the window
# arithmetic refuses a k that would wrap, that the center's receive-time
# join (open, frozen and rebuilt partials, the window prefix) stays
# byte-identical to joining the held cells from scratch, that a late upload
# drops a frozen partial that MarshalPartial may be encoding outside the
# lock instead of writing into it, that the epoch log runs an epoch
# read's visit unlocked, that a replay from logged partials answers exactly
# what the point cells give, and that every stored partial, logged or
# cached, answers exactly what a naive merge of the log's cells gives,
# that a center and a relay refuse an upload epoch outside the epoch rule,
# that a point refuses a Welcome outside it, that a center refuses to
# import the state of another sketch shape, that a flow's projection read
# through a partial cell's block index equals the full decode's, that a
# cold epoch allocates no maximum-width sketch, that cached source partials
# answer exactly, and that the HLL estimators'
# integer harmonic sum and the one-pass spread estimates give bit for bit
# what the float per-register loops they replaced gave, and that the
# center's trim per floor step holds exactly the cells a full walk on every
# receive would, and that the per-epoch merger a center and a relay share
# holds at most n + 2 rounds of barrier state while a child stays silent.
# Race builds run internal/hll's portable register kernels,
# not the SSE2 assembly, whose writes the race detector cannot see: that is
# what lets TestMarshalPartialRacesLateUpload report a late cell merged
# into a frozen partial as a data race.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run '^(TestJoinIsLinearPerRound|TestEndEpochFoldsEachLaneOnce|TestReplayWindowMatchesMergeReference|TestEpochPartialDoesNotAliasCells|TestReceiveJoinMatchesReference|TestMarshalPartialRacesLateUpload|TestHistoryAggregateSpanEdges|TestCheckEpochBounds|TestUploadEpochRule|TestHistoryReplayCacheCells|TestTrimMatchesFullWalk|TestBarrierStateBounded)$$' ./internal/core
	$(GO) test -race -count=1 -run '^TestLogGetEpochVisitRunsUnlocked$$' ./internal/durable
	$(GO) test -race -count=1 -run '^(TestFlowProjectionMatchesDecode|TestProjectRejectsHostileIndex)$$' ./internal/rskt ./internal/countmin
	$(GO) test -race -count=1 -run '^TestEstimateMatchesFloatReference$$' ./internal/hll
	$(GO) test -race -count=1 -run '^TestEstimateUnionMatchesReference$$' ./internal/rskt ./internal/vhll
	$(GO) test -race -count=1 -run '^(TestPersistedPartialMatchesCells|TestHistoryModelMatchesNaiveReplay|TestCenterStateImportRejectsForeignShape|TestPointWelcomeEpochRule|TestColdEpochAllocatesNoWideSketch|TestPreviousLayoutPartialFallsBackToCells|TestPreviousLayoutWidePartial)$$' ./internal/transport

# The crash-restart matrix: process-death scenarios against the durable
# checkpoint store, plus the store's own corruption/fallback tests, all
# under the race detector.
crash-test:
	$(GO) test -race -run '^TestFaultCrash' -count=1 ./internal/transport
	$(GO) test -race ./internal/durable

# The aggregation-tree and shard matrices: relay crash/restart/partition
# scenarios, shard failover, live tree-vs-flat and sharded-vs-flat
# equality, the cluster-sim topology property tests, and the relay wire
# and checkpoint goldens — the correctness gate for hierarchical
# deployments. The handshake-rejection table and the mid-fan-out rejoin
# test run the shared child-facing half under both of its users, center
# and relay; the relay refuses a Hello whose state epoch would wrap its
# resync and ignores one past its parent's clock; and, in internal/core,
# TestRelayTreeMatchesReference holds the relay (the per-epoch merger plus
# its in-order forwarder) to a naive per-epoch list of child cells.
tree-test:
	$(GO) test -race -count=1 \
		-run '^(TestFaultRelay|TestRelayTreeEqualsFlatLive|TestShardedEqualsFlat|TestFaultShardFailover|TestGoldenRelay|TestHelloMismatchDropsConnection|TestRedialDuringFanOutGetsCurrentRound|TestRelayHelloEpochRule)' \
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
# a time budget and keeps its per-run lines (epochs survived, faults
# injected) in chaos_soak.txt; a failing seed prints its exact replay
# command.
CHAOS_SEED ?= 1
CHAOS_SOAK ?= 2m
chaos-soak:
	$(GO) run ./cmd/tqchaos -seed $(CHAOS_SEED) -duration $(CHAOS_SOAK) | tee chaos_soak.txt

# The epoch-log store and retrospective-query gate: the log's own
# format/retention/torn-tail/concurrency tests, the core replay engine,
# the end-to-end oracle matrix (-at/-range bit-identical to recorded
# live answers across flat/tree/sharded topologies, both designs, and a
# restart that rebuilds the index from disk), and
# the model-based referee TestHistoryModelMatchesNaiveReplay (random
# appends, faults, weight changes, cache resets, restarts and
# compactions against a small replay cache, every answer held to a naive
# merge of the log's cells), all under the race detector.
store-test:
	$(GO) test -race -count=1 -run '^(TestLog|TestOpenRejects)' ./internal/durable
	$(GO) test -race -count=1 -run '^TestHistory' ./internal/core
	$(GO) test -race -count=1 -run '^TestHistory' ./internal/transport

# Short fuzz pass over every decode surface a peer can reach: the protocol
# streams (center- and point-side), the Push apply path, the center and
# relay checkpoint sections (an accepted section must re-encode to the
# same bytes), the epoch log's partial cell read through its block index
# (a hostile index or cell must not panic or allocate beyond a bound, and
# a true index must read what the full decode gives), the sketch and
# trace binary decoders (each sketch has one encoding; an accepted input
# must re-encode to the same bytes, and the hll compact target covers the
# register layouts the wire and checkpoints carry), the SWAR merge
# against its scalar model, and the rSkt2 spread estimate on arbitrary
# registers against its per-register reference.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzCenterConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzPointConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzPushApply$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzRelayConn$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointSection$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzPartialCellIndex$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/rskt
	$(GO) test -run '^$$' -fuzz '^FuzzEstimateUnion$$' -fuzztime $(FUZZTIME) ./internal/rskt
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/countmin
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalBinary$$' -fuzztime $(FUZZTIME) ./internal/vhll
	$(GO) test -run '^$$' -fuzz '^FuzzMergeMax$$' -fuzztime $(FUZZTIME) ./internal/hll
	$(GO) test -run '^$$' -fuzz '^FuzzCompact$$' -fuzztime $(FUZZTIME) ./internal/hll
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz . -fuzztime $(FUZZTIME) ./internal/trace

# The end-to-end benchmark (bench/, BENCHMARK.json): every workload, one
# JSON document. Not part of check; the paper's tables and figures come
# from cmd/tqbench (see EXPERIMENTS.md).
bench:
	$(GO) run ./bench -all -o bench_out.json
