GO ?= go

.PHONY: build test race bench bench-parallel bench-once verify repro-quick check ci fmt-check chaos smoke-replicas stress

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

# Every Go benchmark in the module, one iteration each: keeps the
# micro-benchmarks compiling and running. It measures nothing; the
# benchmark of record is perfbench (bash perfbench/run.sh).
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

verify: test race

# Chaos suite: deterministic fault injection end to end. The headline
# invariant is that a chaos run under -keep-going emits byte-identical
# artifacts for every experiment the fault did not touch, plus the
# signal-handling, retry, and checkpoint-resume contracts. Fault plans
# are per instance, so the plan-arming tests run in parallel within one
# process; the second half reruns those packages under the race detector.
chaos:
	$(GO) test -run 'TestChaos|TestCLIChaos|TestSIG|TestBuildRetry|TestBuildFails|TestCLICheckpoint|TestCheckpointResume' \
		./cmd/repro ./internal/core
	$(GO) test ./internal/fault ./internal/ckpt ./internal/replica
	$(GO) test -run 'TestSimulateCtx|TestSimulateFaultSite|TestPanicStops|TestForEachCtx' \
		./internal/cluster ./internal/par
	$(GO) test -run 'TestHealthzDegradedStillOK|TestLeaseLostDuringCoreBuildKeepsScenarioUsable' ./internal/serve
	$(GO) test -race ./internal/fault ./internal/ckpt ./internal/replica
	$(GO) test -race -run 'TestChaos|TestBuildRetry|TestBuildFails|TestCheckpointResume' ./internal/core
	$(GO) test -race -run 'TestSimulateCtx|TestSimulateFaultSite' ./internal/cluster
	$(GO) test -race -run 'TestHealthzDegradedStillOK|TestLeaseLostDuringCoreBuildKeepsScenarioUsable' ./internal/serve

# Concurrency stress gate: every test that pins a concurrency guarantee
# (one build fleet-wide, including between daemons sharing a checkpoint
# dir under default names, lease takeover under chaos, a superseded
# holder never publishing, request coalescing,
# admission, drain, hits served before the gate, render-once), repeated
# 500 times on two cores, then once under the race detector.
# Each test states its guarantee as a GIVEN/WHEN/THEN comment. The gate
# is 0 failures.
STRESS_REPLICA = ^(TestConcurrentReplicasBuildOnce|TestChaosKilledLeaderConverges|TestLeaseTakeoverRebuildsByteIdentical|TestLeaseLostCancelsSlowHolder|TestLeaseLostBetweenTicksNeverPublishes)$$
STRESS_SERVE = ^(TestSharedDirDaemonsBuildOnce|TestCoalescingOneBuild|TestAdmissionGateRejects|TestDrainLetsInflightFinish|TestHitsBypassSaturatedGate|TestConcurrentHitsRenderOnce|TestGroupCoalescesConcurrentCallers|TestGroupWaiterAbandonsOnContextCancel|TestGateQueuesThenRejects|TestGateQueuedCallerHonorsContext)$$
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
# instrumentation-never-changes-outputs invariant, the chaos suite, the
# concurrency stress gate and one iteration of every benchmark.
check: fmt-check chaos stress
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestInstrumentationByteIdentical|TestInstrumentationDoesNotChangeResults' \
		./cmd/repro ./internal/core
	$(GO) test -run 'TestReferencePlacementByteIdentical' ./internal/cluster
	$(GO) test -run 'TestSketchMatchesExact|TestUsageSketchMatchesExactUsage' ./internal/stats ./internal/hostload
	$(GO) test -run 'TestMetricsExposition|TestAccessLogWritten|TestMultiReplicaSmoke' ./cmd/reprod
	$(GO) test -run 'TestColdRequestTraceChain|TestFleetColdTraceHasCheckpointSpans|TestServedBytesIdenticalTraced|TestETag|TestTwoReplicas|TestLeaseTakeover|TestHitsBypassSaturatedGate|TestReportAssembledByteIdentical|TestEvictionRebuildByteIdentical' \
		./internal/serve ./internal/replica
	$(MAKE) smoke-replicas
	$(MAKE) bench-once

# What .github/workflows/ci.yml runs, runnable locally so "CI is red"
# never needs a push to debug.
ci: fmt-check build test race chaos stress smoke-replicas
	$(MAKE) bench-once

repro-quick:
	$(GO) run ./cmd/repro -scale quick
