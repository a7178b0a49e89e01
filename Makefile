# Targets mirror the CI pipeline (.github/workflows/ci.yml): a green
# `make ci` locally means the required jobs pass, except the `ledger` job,
# which is `make ledger-gate` (~10 minutes, needs both CPUs to itself).
# No target reads a committed result file: every gate runs the code and
# judges it against a reference measured in the same run.

GO ?= go

.PHONY: build test race vet fmt-check chaos-clockless chaos-smoke chaos-race fuzz-smoke bench-smoke benchmark ledger-gate policy-gate cluster-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line holds the monitor's multithreaded tests (shared data
# domain heaps, per-thread counter cells, ledger slots) to twenty clean
# rounds: a race there shows about once in twenty. The third does the
# same for the storage shard lock's spin-then-park acquisition (hammer,
# park fallback, short holds, one P). The fourth holds the shared
# client-to-worker hand-off (internal/proc: start, wait, chunking, and
# its down paths — a worker dying with events in hand, a call after
# Terminate, a start racing it) and the fifth the memcache tests that
# stage a backlog through it behind a parked worker. The last holds the
# router's dead-backend spill to exactly FailThreshold degraded replies
# two hundred times: a stopped backend must answer nothing, or a reply
# resets its failure streak and the count drifts.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 ./internal/core
	$(GO) test -race -count=20 -run 'ShardLock' ./internal/memcache
	$(GO) test -race -count=20 ./internal/proc
	$(GO) test -race -count=20 -run 'BlastRadius|TwoConnsInOneRound|ChunkedPipeline' ./internal/memcache
	$(GO) test -race -count=200 -run SpillsAroundDeadBackend ./internal/cluster

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# A campaign's schedule must be a function of its seed: backlogs are
# staged with Conn.Start behind a parked worker and time passes on a
# manual clock, so nothing under internal/chaos may wait on the wall clock.
chaos-clockless:
	@if grep -rn 'time\.Sleep' internal/chaos; then \
		echo "internal/chaos must not sleep: stage with Conn.Start, advance a ManualClock"; exit 1; fi

# A single fixed-seed round of every chaos campaign, as the smoke test runs.
chaos-smoke:
	$(GO) test -run TestChaosSmoke -v ./internal/chaos
	$(GO) run ./cmd/sdrad-chaos -seed 12648430 -ops 16

# The campaigns stage backlogs behind a parked worker (sequential
# Conn.Start calls, no clock); fifty rounds under the race detector hold
# that staging to "never flakes", as the CI build job does.
chaos-race:
	$(GO) test -race -count=50 -run TestChaosSmoke ./internal/chaos

# Ten seconds of native fuzzing on the memcached request framer the
# router and the backend share (seeded with text, pipelined, binary and
# CVE-2011-4971 frames): frames must be non-empty and concatenate to a
# prefix of the input. A guard, not a hunt.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime 10s ./internal/memcache

# The evaluation at reduced scale (all 14 experiments, the three live
# claims included), then one iteration of each mechanism benchmark (the
# guard scope, the deferred store and its apply, the contended shard lock,
# the client-to-worker hand-off, a keep-alive GET on both httpd arms) so
# they keep compiling and running; time them with -benchtime=2s -count=5.
bench-smoke:
	$(GO) run ./cmd/sdrad-bench -quick
	$(GO) test -run '^$$' -bench 'BenchmarkGuardScope$$' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'Benchmark(DeferredSetApply|ShardLockContended)$$' -benchtime=1x ./internal/memcache
	$(GO) test -run '^$$' -bench 'BenchmarkHandoffDo$$' -benchtime=1x ./internal/proc
	$(GO) test -run '^$$' -bench 'BenchmarkKeepAliveGET$$' -benchtime=1x ./internal/httpd

# The cost-of-hardening ledger BENCHMARK.json names: five paired
# vanilla/sdrad workloads, ~2 minutes (see benchmark/README.md).
benchmark:
	bash benchmark/run.sh

# The ledger as judge of a change: the parent commit and HEAD measured on
# this machine, back to back, in two pairs that alternate which side goes
# first, each pair compared. `-compare` fails on a move beyond a metric's
# BENCHMARK.json bound in EITHER direction, by design: two runs one commit
# apart must agree, and a number that reads much better is as suspect as
# one that reads worse. One pair is not a verdict on a shared box (of
# three pairs around a change that touched no request path, one had a
# disturbed parent run and one put a p99.9 31% "better"; EXPERIMENTS.md
# E19), so the gate fails on a metric only when BOTH pairs put it beyond
# its bound in the same direction: drift that follows run order shows up
# with opposite signs, a real move with the same one. The parent is a
# detached worktree under .bench_build/, where each checkout also keeps
# its own build. (The awk reads compare.go's "BEYOND BOUND, better|worse"
# verdict column.)
LEDGER_PARENT := $(CURDIR)/.bench_build/parent
LEDGER_OUT := $(CURDIR)/benchmark/out
ledger-gate:
	-git worktree remove --force $(LEDGER_PARENT)
	git worktree add --detach $(LEDGER_PARENT) HEAD^
	bash $(LEDGER_PARENT)/benchmark/run.sh --out $(LEDGER_OUT)/parent1.json
	bash benchmark/run.sh --out $(LEDGER_OUT)/head1.json
	bash benchmark/run.sh --out $(LEDGER_OUT)/head2.json
	bash $(LEDGER_PARENT)/benchmark/run.sh --out $(LEDGER_OUT)/parent2.json
	git worktree remove --force $(LEDGER_PARENT)
	@for i in 1 2; do \
		$(GO) run ./benchmark -compare $(LEDGER_OUT)/parent$$i.json $(LEDGER_OUT)/head$$i.json \
			> $(LEDGER_OUT)/compare$$i.txt; \
		cat $(LEDGER_OUT)/compare$$i.txt; \
		[ -s $(LEDGER_OUT)/compare$$i.txt ] || exit 2; \
		awk '/BEYOND BOUND/ {print $$1, $$2, $$NF}' $(LEDGER_OUT)/compare$$i.txt | sort \
			> $(LEDGER_OUT)/moved$$i.txt; \
	done; \
	both="$$(comm -12 $(LEDGER_OUT)/moved1.txt $(LEDGER_OUT)/moved2.txt)"; \
	if [ -n "$$both" ]; then \
		echo "ledger-gate: beyond bound in both pairs, same direction:"; echo "$$both"; exit 1; \
	fi; \
	echo "ledger-gate: no metric beyond its bound in both pairs"

# The fixed-seed escalation-ladder campaign, then the recovery claim
# (rewind >= 3x cheaper than restart, both arms measured in this run), as
# the policy-gate CI job runs them.
policy-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns policy -seed 12648430 -ops 32
	$(GO) run ./cmd/sdrad-bench -quick -recovery

# The fixed-seed cluster chaos campaign, then the routed kill cell's claim
# (availability >= 0.95 with one of three backends killed mid-run), as the
# cluster-gate CI job runs them.
cluster-gate:
	$(GO) run ./cmd/sdrad-chaos -campaigns cluster -seed 12648430 -ops 16
	$(GO) run ./cmd/sdrad-bench -quick -cluster

ci: build vet fmt-check chaos-clockless test race chaos-smoke chaos-race fuzz-smoke bench-smoke policy-gate cluster-gate
