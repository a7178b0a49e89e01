# Targets mirror the CI pipeline (.github/workflows/ci.yml): a green
# `make ci` locally means the required jobs pass.

GO ?= go

.PHONY: build test race vet fmt-check chaos-smoke chaos-race bench-smoke benchmark throughput-gate parity-gate parity-bench policy-gate recovery-bench cluster-gate cluster-bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line holds the monitor's multithreaded tests (shared data
# domain heaps, per-thread counter cells, ledger slots) to twenty clean
# rounds: a race there shows about once in twenty.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 ./internal/core

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# A single fixed-seed round of every chaos campaign, as the smoke test runs.
chaos-smoke:
	$(GO) test -run TestChaosSmoke -v ./internal/chaos
	$(GO) run ./cmd/sdrad-chaos -seed 12648430 -ops 16

# The campaigns stage backlogs behind a parked worker; fifty rounds under
# the race detector hold that staging to "never flakes", as the CI build
# job does.
chaos-race:
	$(GO) test -race -count=50 -run TestChaosSmoke ./internal/chaos

# The evaluation at reduced scale, then one iteration of each mechanism
# benchmark (the guard scope, the deferred store and its apply) so they
# keep compiling and running; time them with -benchtime=2s -count=5.
bench-smoke:
	$(GO) run ./cmd/sdrad-bench -quick
	$(GO) test -run '^$$' -bench 'BenchmarkGuardScope$$' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkDeferredSetApply$$' -benchtime=1x ./internal/memcache

# The cost-of-hardening ledger BENCHMARK.json names: five paired
# vanilla/sdrad workloads, ~2 minutes (see benchmark/README.md).
benchmark:
	bash benchmark/run.sh

# The channel-path scaling curve against the committed baseline, as the
# bench-regression CI job gates it (full scale, ~3 minutes).
throughput-gate:
	$(GO) run ./cmd/sdrad-bench -throughput -throughput-baseline BENCH_throughput.json

# The check-elision parity gate: assert the committed baseline holds the
# headline cell (sdrad w8 d16) at >= 0.97x vanilla. Deterministic — it
# reads BENCH_throughput.json, runs nothing — so machine noise cannot
# flake it; a recording below the floor simply may not be committed.
parity-gate:
	$(GO) run ./cmd/sdrad-bench -parity-baseline BENCH_throughput.json

# Re-measure the paired parity grid live (~2 minutes on a quiet machine;
# the headline ratio is also re-recorded by `-throughput`, which is what
# updates the gated baseline).
parity-bench:
	$(GO) run ./cmd/sdrad-bench -parity

# The fixed-seed escalation-ladder campaign plus the recovery-cost gate,
# as the policy-gate CI job runs them.
policy-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns policy -seed 12648430 -ops 32
	$(GO) run ./cmd/sdrad-bench -quick -recovery-baseline BENCH_recovery.json

# Re-measure rewind-vs-restart recovery cost and rewrite the committed
# baseline (run on a quiet machine, then commit BENCH_recovery.json).
recovery-bench:
	$(GO) run ./cmd/sdrad-bench -quick -recovery-json BENCH_recovery.json

# The fixed-seed cluster chaos campaign plus the routed-path gates, as
# the cluster-gate CI job runs them. The scaling/availability gate is
# deterministic — it reads BENCH_cluster.json, runs nothing — and the
# live rerun is a coarse 50% sanity bound (routed throughput wears host
# scheduling noise the calibration loop cannot see).
cluster-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns cluster -seed 12648430 -ops 16
	$(GO) run ./cmd/sdrad-bench -cluster-gate BENCH_cluster.json
	$(GO) run ./cmd/sdrad-bench -quick -cluster-baseline BENCH_cluster.json

# Re-measure the routed scaling curve and availability-under-kill cell
# and rewrite the committed baseline (run on a quiet machine, then
# commit BENCH_cluster.json — it must still pass `make cluster-gate`).
cluster-bench:
	$(GO) run ./cmd/sdrad-bench -quick -cluster -cluster-json BENCH_cluster.json

ci: build vet fmt-check test race chaos-smoke chaos-race parity-gate policy-gate cluster-gate
