GO ?= go
# Bench time for bench-json / bench-diff. The 100ms default keeps
# bench-diff fast enough for make check while still giving the
# nanosecond-scale micro-benches enough iterations to mean something;
# use BENCHTIME=1s for numbers worth committing.
BENCHTIME ?= 100ms
# Benchmark snapshot file, and the newest committed one to diff
# against. The default output is an untracked scratch file, so a plain
# `make bench-json` never overwrites a committed snapshot; record a new
# one with `make bench-json BENCH_OUT=BENCH_prN.json`. The baseline must be picked by the *numeric* PR suffix:
# make's $(sort) is lexical, so it would rank BENCH_pr10.json before
# BENCH_pr2.json and silently diff against a stale snapshot once the
# PR counter hits double digits. sort -t_ -k2.3 -n keys on the digits
# after "BENCH_pr" instead.
BENCH_OUT ?= BENCH_local.json
BENCH_BASE ?= $(shell ls BENCH_pr*.json 2>/dev/null | grep -vx '$(BENCH_OUT)' | sort -t_ -k2.3 -n | tail -n1)

.PHONY: build test race bench bench-parallel verify repro-quick check ci fmt-check bench-json bench-diff chaos smoke-replicas stress

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The concurrency gate: the parallel experiment pipeline and the
# index-sharded analysis scans must stay race-clean.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Serial-vs-parallel pipeline wall time.
bench-parallel:
	$(GO) test -bench='BenchmarkRunAll(Serial|Parallel)$$' -run=^$$ .

verify: test race

# Chaos suite: deterministic fault injection end to end. The headline
# invariant is that a chaos run under -keep-going emits byte-identical
# artifacts for every experiment the fault did not touch, plus the
# signal-handling, retry, and checkpoint-resume contracts.
chaos:
	$(GO) test -run 'TestChaos|TestCLIChaos|TestSIG|TestBuildRetry|TestBuildFails|TestCLICheckpoint|TestCheckpointResume' \
		./cmd/repro ./internal/core
	$(GO) test ./internal/fault ./internal/ckpt ./internal/replica
	$(GO) test -run 'TestSimulateCtx|TestSimulateFaultSite|TestPanicStops|TestForEachCtx' \
		./internal/cluster ./internal/par
	$(GO) test -run 'TestHealthzDegradedStillOK|TestLeaseLostDuringCoreBuildKeepsScenarioUsable' ./internal/serve

# Concurrency stress gate: every test that pins a concurrency guarantee
# (one build fleet-wide, lease takeover under chaos, a superseded holder
# never publishing, request coalescing,
# admission, drain, hits served before the gate, render-once), repeated
# 500 times on two cores, then once under the race detector.
# Each test states its guarantee as a GIVEN/WHEN/THEN comment. The gate
# is 0 failures.
STRESS_REPLICA = ^(TestConcurrentReplicasBuildOnce|TestChaosKilledLeaderConverges|TestLeaseTakeoverRebuildsByteIdentical|TestLeaseLostCancelsSlowHolder|TestLeaseLostBetweenTicksNeverPublishes)$$
STRESS_SERVE = ^(TestCoalescingOneBuild|TestAdmissionGateRejects|TestDrainLetsInflightFinish|TestHitsBypassSaturatedGate|TestConcurrentHitsRenderOnce|TestGroupCoalescesConcurrentCallers|TestGroupWaiterAbandonsOnContextCancel|TestGateQueuesThenRejects|TestGateQueuedCallerHonorsContext)$$
stress:
	GOMAXPROCS=2 $(GO) test -count=500 -run '$(STRESS_REPLICA)' ./internal/replica
	GOMAXPROCS=2 $(GO) test -count=500 -run '$(STRESS_SERVE)' ./internal/serve
	$(GO) test -race -count=1 -run '$(STRESS_REPLICA)' ./internal/replica
	$(GO) test -race -count=1 -run '$(STRESS_SERVE)' ./internal/serve

# Multi-replica fleet smoke: 3 daemons over one shared checkpoint dir
# (one chaos-armed), reprobench -strict against all three, single-signal
# drain. The same contract the CI multi-replica-smoke job gates on.
smoke-replicas:
	./scripts/multi_replica_smoke.sh

# Fail if any file needs gofmt. Kept as its own target so both make
# check and the CI workflow gate on the exact same command.
fmt-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# Full hygiene gate: formatting, vet, the race detector, the
# instrumentation-never-changes-outputs invariant, the chaos suite and
# the concurrency stress gate.
check: fmt-check chaos stress
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestInstrumentationByteIdentical|TestInstrumentationDoesNotChangeResults' \
		./cmd/repro ./internal/core
	$(GO) test -run 'TestReferencePlacementByteIdentical' ./internal/cluster
	$(GO) test -run 'TestSketchMatchesExact|TestUsageSketchMatchesExactUsage' ./internal/stats ./internal/hostload
	$(GO) test -run 'TestMetricsExposition|TestAccessLogWritten|TestMultiReplicaSmoke' ./cmd/reprod
	$(GO) test -run 'TestColdRequestTraceChain|TestServedBytesIdenticalTraced|TestETag|TestTwoReplicas|TestLeaseTakeover|TestHitsBypassSaturatedGate|TestReportAssembledByteIdentical|TestEvictionRebuildByteIdentical' \
		./internal/serve ./internal/replica
	$(MAKE) smoke-replicas
	-$(MAKE) bench-diff BENCH_OUT=/tmp/BENCH_check.json

# Machine-readable benchmark snapshot: the pipeline benches (including
# the resilient-runner overhead and warm checkpoint-resume pair) plus
# the simulator, observability, and checkpoint micro-benches, and the
# reprobench serving load test (hot/cold mix against a self-hosted
# daemon, with the server-vs-client quantile cross-check), as JSON.
bench-json:
	$(GO) test -bench='BenchmarkRunAll(Serial|Parallel|ParallelInstrumented|ParallelResilient|CheckpointWarm)$$' -benchmem -benchtime=$(BENCHTIME) -run=^$$ . > /tmp/bench_root.txt
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./internal/cluster >> /tmp/bench_root.txt
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./internal/obs >> /tmp/bench_root.txt
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./internal/ckpt >> /tmp/bench_root.txt
	$(GO) test -bench='BenchmarkUsageSamples(Exact|Streaming)$$' -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./internal/hostload >> /tmp/bench_root.txt
	$(GO) run ./cmd/reprobench -requests 128 -concurrency 8 >> /tmp/bench_root.txt
	cat /tmp/bench_root.txt | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# Re-run the bench suite and diff it against the newest committed
# snapshot. Exits non-zero if any benchmark's ns/op or allocs/op
# regressed beyond benchjson's threshold (10% by default).
bench-diff: bench-json
	$(GO) run ./cmd/benchjson -old $(BENCH_BASE) -new $(BENCH_OUT)

# What .github/workflows/ci.yml runs, runnable locally so "CI is red"
# never needs a push to debug. bench-diff is advisory there (a separate
# continue-on-error job), so it is advisory here too: the leading dash
# keeps a perf regression from masking a correctness failure.
ci: fmt-check build test race chaos stress smoke-replicas
	-$(MAKE) bench-diff BENCH_OUT=/tmp/BENCH_ci.json

repro-quick:
	$(GO) run ./cmd/repro -scale quick
