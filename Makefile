GO ?= go

.PHONY: test race lint fault chaos chaos-soak fuzz-smoke smoke shard-smoke perf-smoke bench bakeoff bench-gather bench-regress

test:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project-invariant static analysis (docs/static-analysis.md): go vet
# plus the mcslint suite (ctxpoll, nopanic, determinism, obsnames,
# errchecklite, grouped, faultsite) over every package, with vetted
# exceptions in
# lint/allow.txt. -strict-allow keeps the allowlist honest: an entry
# that stops matching anything fails the build until it is deleted.
# gofmt -l must print nothing.
lint:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/mcslint -strict-allow ./...

# Robustness battery under the race detector: cancellation at every
# fault-injection site, contained worker panics, budget degradation, and
# goroutine-leak checks (see docs/robustness.md).
fault:
	$(GO) test -race -run 'Cancel|Fault|Leak|Panic|Budget|Degrade' ./internal/pipeerr/ ./internal/faultinject/ ./internal/mergesort/ ./internal/mergesort/paper/ ./internal/mcsort/ ./internal/engine/ ./mcs/

# Chaos battery under the race detector: seeded fault storms against a
# live mcsd with concurrent retrying clients, plus the watchdog,
# breaker, status-taxonomy, and client retry/breaker tests
# (docs/robustness.md). Every storm logs its seed; re-run with the same
# seed to reproduce a failure.
chaos:
	$(GO) test -race -run 'TestStorm|TestWatchdog|TestBreaker|TestStatus|TestRetry|TestRetries|TestBackoff|TestSetProb|TestChaosKind|TestShardStorm|TestKilledShard' ./internal/chaos/ ./internal/server/ ./internal/client/ ./internal/faultinject/ ./internal/shard/

# The acceptance storms: the single-node 60-second storm (>= 32
# clients, workers {1,4,8}, every fault kind armed) plus the 45-second
# cross-shard storm over a 4-shard topology. Override seeds with
# `-chaos-seed 0x...` / `-shard-chaos-seed 0x...`.
chaos-soak:
	$(GO) test -tags soak -race -run TestStormSoak -timeout 10m -v ./internal/chaos/
	$(GO) test -tags soak -race -run TestShardStormSoak -timeout 10m -v ./internal/shard/

# FuzzMergesortSort and FuzzRadixSort are two corpus formats of one
# oracle (fuzzKernels: production kernel ≡ paper kernel ≡
# sort.SliceStable): full-bank keys on the sequential entry point, and
# narrow keys in a wider bank at workers {1, 2, 3, 8, 300}, repeated
# past the parallel radix sort's chunk floor from two workers on.
fuzz-smoke:
	$(GO) test -fuzz=FuzzMergesortSort -fuzztime=25s ./internal/mergesort/
	$(GO) test -fuzz=FuzzRadixSort -fuzztime=25s ./internal/mergesort/
	$(GO) test -fuzz=FuzzParallelMerge -fuzztime=30s ./internal/mergesort/
	$(GO) test -fuzz=FuzzOVCMerge -fuzztime=30s ./internal/mergesort/
	$(GO) test -fuzz=FuzzMassageRoundTrip -fuzztime=30s ./internal/massage/
	$(GO) test -fuzz=FuzzQueryRequest -fuzztime=20s ./internal/server/
	$(GO) test -fuzz=FuzzTopKMerge -fuzztime=30s ./internal/mergesort/
	$(GO) test -fuzz=FuzzTopKContext -fuzztime=30s ./internal/mergesort/
	$(GO) test -fuzz=FuzzLimitQuery -fuzztime=20s ./internal/server/
	$(GO) test -fuzz=FuzzResultFrame -fuzztime=20s ./internal/server/
	$(GO) test -fuzz=FuzzShardMerge -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzShardRows -fuzztime=20s ./internal/shard/
	$(GO) test -fuzz=FuzzExecuteDeterministic -fuzztime=20s ./internal/mcsort/

# End-to-end mcsd smoke: build the daemon, start it on a small TPC-H
# table, run one query twice (second must hit the plan cache, visible
# on /metrics), SIGTERM, and require a clean drain (docs/serving.md).
smoke:
	./scripts/smoke_mcsd.sh

# End-to-end sharded smoke: three shard daemons + a coordinator + an
# unsharded oracle daemon; the coordinator's answer must be
# byte-identical to the oracle's, and everything must drain cleanly on
# SIGTERM (docs/sharding.md).
shard-smoke:
	./scripts/smoke_shards.sh

# Build-and-correctness smoke of the repo benchmark (BENCHMARK.json):
# a short untraced run of the two served workloads, and a short traced
# run of the two in-process ones — the traced replay is the one caller
# that names the sort stack's entry points one by one (massage,
# mergesort, mcsort, engine), so it breaks first when one is renamed.
# Each must end in a JSON line reporting a correct run with zero failed
# operations. No timing gate.
perf-smoke:
	@for wt in shard3_window_full:0 serve_topk_cold:0 lib_wide_unique:1 lib_ties:1; do \
		w=$${wt%:*}; \
		out=$$(bash bench/mcsperf/run.sh --workload $$w --seed 7 --seconds 2 --trace $${wt#*:} | tail -n 1) || exit 1; \
		echo "$$w: $$out"; \
		case "$$out" in *'"correct":true'*'"failed":0,'*) ;; *) echo "perf-smoke: $$w did not finish correct with failed:0" >&2; exit 1;; esac; \
	done

# Human-readable worker-scaling numbers for the fixed 1M-row workload.
bench:
	$(GO) test -run '^$$' -bench BenchmarkPipeline1Mx4 -benchtime 3x .

# The sort-kernel bake-off behind mergesort's kernel choice and its
# small-run cutoff: radix, insertion and slices.SortFunc per (bank,
# duplicates, run length) cell, then the paper kernel's cells from
# internal/mergesort/paper, ns/row, one core. The table in
# EXPERIMENTS.md is this output. Then, at two cores and 2^19 rows,
# ns/row: the parallel sort — the production parallel radix sort at
# workers {1, 2} and the top-K sort (the radix select) at limits
# {100, n/8, n/2−1, n−1} × workers {1, 2}, then the paper kernel's
# chunk sorts and chunk merge at 2 — and the
# merge of sorted runs (MergeRunsContext) at k {2, 3, 8} and workers
# {1, 2}. CI runs them all at -benchtime 1x as a compile-and-run smoke.
bakeoff:
	$(GO) test -run '^$$' -bench BenchmarkKernelBakeoff -benchtime 20x -cpu 1 ./internal/mergesort/ ./internal/mergesort/paper/
	$(GO) test -run '^$$' -bench BenchmarkParallelSort -benchtime 20x -cpu 2 ./internal/mergesort/ ./internal/mergesort/paper/
	$(GO) test -run '^$$' -bench BenchmarkMergeRuns -benchtime 20x -cpu 2 ./internal/mergesort/

# The ByteSlice gather, then the coordinator's gather without the wire.
# BenchmarkGather: ns/row of a per-row Lookup loop against the batch
# Gather at widths {6, 21, 32} on identity rows and on a 96 % subset,
# 2^19 rows (the table in EXPERIMENTS.md). BenchmarkCoordinatorGather:
# run builds and merge+rank timed separately (ns/row) on the pinned
# window shape of mcsperf's shard3_window_full over a 2^18-row TPC-H
# table in 3 ranges. CI runs both at -benchtime 1x as a compile-and-run
# smoke.
bench-gather:
	$(GO) test -run '^$$' -bench BenchmarkGather -benchtime 20x ./internal/byteslice/
	$(GO) test -run '^$$' -bench BenchmarkCoordinatorGather -benchtime 20x ./internal/shard/

# The relative gates that still live beside mcsperf: each compares two
# measurements taken in the same process (truncated vs full sort, OVC on
# vs off, guarded vs unguarded serving, coordinator vs direct daemon).
bench-regress:
	BENCH_REGRESS=1 $(GO) test -run 'TestBenchOVCSkewSweep|TestBenchTopK|TestBenchChaosOverhead|TestBenchShardOverhead' -v -timeout 20m .
