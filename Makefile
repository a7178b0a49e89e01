# Targets mirror the CI pipeline (.github/workflows/ci.yml): a green
# `make ci` locally means the required jobs pass, except the `ledger` job,
# which is `make ledger-gate` (~10 minutes, needs both CPUs to itself).
# No target reads a committed result file: every gate runs the code and
# judges it against a reference measured in the same run.

GO ?= go

.PHONY: build test race vet fmt-check chaos-clockless monitor-admits pkru-writers trap-recovers one-host examples chaos-smoke chaos-race fuzz-smoke bench-smoke benchmark ledger-gate policy-gate cluster-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line holds the monitor's multithreaded tests (shared data
# domain heaps, per-thread counter cells, ledger slots, and the reference
# model's three-thread driver, TestRandomizedMultithreaded) to twenty
# clean rounds: a race there shows about once in twenty. The third does the
# same for the storage shard lock's spin-then-park acquisition (hammer,
# park fallback, short holds, one P). The fourth holds the shared
# client-to-worker hand-off (internal/proc: a connection's call record —
# start, wait, chunking, reuse — and its down paths: a worker dying with
# an event in hand, a call after Terminate, a start racing it, a parked
# worker woken by the sweeper's marker) and the fifth the memcache tests that
# stage a backlog through it behind a parked worker (a trap between two
# innocent events on a fresh server, two connections' events, a chunked
# pipeline), plus the idle worker's audit after a sibling's rewind (two
# workers deriving their PKRU policies side by side) and the clients
# whose replies last until their connection's next call while the other
# client is served, the clients whose every call runs on their
# connection's one call record, across Stop, and two workers growing the
# root heap side by side; the sixth holds httpd's
# reply lifetime and its connection's record the same way. CI's race
# job runs this target, so the list lives here only. The last holds the
# router's dead-backend spill to exactly FailThreshold degraded replies
# two hundred times: a stopped backend must answer nothing, or a reply
# resets its failure streak and the count drifts.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 ./internal/core
	$(GO) test -race -count=20 -run 'ShardLock' ./internal/memcache
	$(GO) test -race -count=20 ./internal/proc
	$(GO) test -race -count=20 -run 'FreshServerTrap|TwoStagedEvents|ChunkedPipeline|IdleWorkerAuditAfterSiblingRewind|RepliesLastUntilTheNextCall|ConnEventAcrossDoPipelineAndStop|RootHeapGrowsFromTwoWorkers' ./internal/memcache
	$(GO) test -race -count=20 -run 'RepliesLastUntilTheNextCall|ConnEventAcrossDoPipelineAndStop' ./internal/httpd
	$(GO) test -race -count=200 -run SpillsAroundDeadBackend ./internal/cluster

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# A sweep's schedule is pinned: faults are armed and audits run through
# Inspect on the serving thread and backlogs are staged with Conn.Start
# behind a parked worker, so nothing under internal/chaos may wait on the
# wall clock.
chaos-clockless:
	@if grep -rn 'time\.Sleep' internal/chaos; then \
		echo "internal/chaos must not sleep: stage with Conn.Start, advance a ManualClock"; exit 1; fi

# ERIM's rule: only the trusted monitor writes the protection-key
# register (GUARANTEES.md, "The trusted boundary"). No non-test Go outside
# internal/core, the monitor, and internal/mem, the simulated MMU that
# defines the instruction, calls WRPKRU, MonitorWRPKRU or LockWRPKRU. The
# one exception is benchmark/probes.go's mem.wrpkru_ns probe, which times
# the bare instruction on a CPU no library owns.
pkru-writers:
	@if grep -rnE --include='*.go' --exclude='*_test.go' '(Monitor|Lock)?WRPKRU\(' . \
		| grep -v -e '^\./internal/core/' -e '^\./internal/mem/' \
			-e '^\./benchmark/probes\.go:[0-9]*:[[:space:]]*c\.WRPKRU(mem\.PKRUInit'; then \
		echo "only internal/core writes PKRU: go through the monitor (core.Library), not the register"; exit 1; fi

# A trap is recovered in three places only: a guard scope's rewind
# (internal/core/guard.go), the process supervisor's termination
# (internal/proc/proc.go) and the MMU's fault probe (mem.CPU.Probe in
# internal/mem/cpu.go). Code that recovers a trap itself gets around the
# monitor's rewind: the failing domain would be neither discarded nor
# reported. No other non-test Go calls recover().
trap-recovers:
	@if grep -rn --include='*.go' --exclude='*_test.go' 'recover()' . \
		| grep -v -e '^\./internal/core/guard\.go:' -e '^\./internal/proc/proc\.go:' -e '^\./internal/mem/cpu\.go:'; then \
		echo "only core's Guard, proc's supervisor and mem's Probe recover a trap: let it reach the guard scope"; exit 1; fi

# Whether a guard scope may run is the monitor's decision, made once per
# scope inside core.Library.Guard: no server asks the policy engine
# itself. (benchmark/ is not scanned: it times Engine.Admit on its own.)
monitor-admits:
	@if grep -rn --include='*.go' --exclude='*_test.go' '\.Admit(' internal cmd examples *.go \
		| grep -v -e '^internal/core/' -e '^internal/policy/'; then \
		echo "only internal/core admits a guard scope: call Guard and handle *core.QuarantineError"; exit 1; fi

# What a build variant decides is decided in internal/host: the servers
# get root memory, connection buffers, data domains, stacks, guard scopes
# and the SDRaD library from it, never pick an allocator, map memory or
# set the library up themselves, and never compare against a variant —
# each runs one request flow, in which the library (nil on a baseline)
# gates the hardened steps. So every heap and stack a server maps is one
# internal/host or internal/core maps.
one-host:
	@if grep -rnE --include='*.go' --exclude='*_test.go' \
		-e '"sdrad/internal/(galloc|tlsf)"' -e 'core\.Setup\(' -e 'InitDomain\(' -e 'MapAnon\(' \
		-e '[!=]=[[:space:]]*(Variant|host\.)(Vanilla|TLSF|SDRaD)\b' \
		-e '\b(Variant|host\.)(Vanilla|TLSF|SDRaD)[[:space:]]*[!=]=' \
		-e 'case[[:space:]]+(Variant|host\.)(Vanilla|TLSF|SDRaD)\b' \
		internal/memcache internal/httpd; then \
		echo "memcache and httpd get their memory and scopes from internal/host (Alloc, OpenConn, DataDomain, Stack, Scope) and run one request flow: no allocator, MapAnon, core.Setup, InitDomain or variant comparison"; exit 1; fi

# The examples are the public API's only runnable docs: run each one to
# its end (a few seconds in all). Each exits non-zero when its scenario
# goes wrong, so an API rule that breaks one fails here.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

# The two fault-point sweeps judged by the vanilla build, each logging
# its point count and wall time and held to its pinned point count and
# schedule hash. The core library is held to its reference model by go
# test (internal/core, model_test.go), the router's fleet ladder by the
# router tests (cluster-gate).
chaos-smoke:
	$(GO) test -count=1 -v -run '^TestSweep' ./internal/chaos

# The sweeps hand faults and audits to the serving thread through Inspect
# (no clock); fifty rounds under the race detector hold that hand-off to
# "never flakes", as the CI build job does. The two sweeps run side by
# side in each round.
chaos-race:
	$(GO) test -race -count=50 -run '^TestSweep' ./internal/chaos

# Ten seconds of native fuzzing on each of four targets. The memcached
# request framer the router and the backend share (seeded with text,
# pipelined, negative-length and CVE-2011-4971 bset frames): frames must be non-empty
# and concatenate to a prefix of the input. The reply framer the router
# reassembles backend replies with (seeded with a hit, stats, an error
# and a VALUE claiming a CVE-2011-4971-sized body): the same, and a
# stream torn inside a reply must read as io.ErrUnexpectedEOF. The
# hardened memcached request path (seeded with the sweep's command mix,
# a CVE-2011-4971 bset and a negative-length bset) and the hardened httpd request
# path (seeded with a GET, a pipelined pair, CVE-2009-2629 and
# CVE-2022-3786): the worker absorbs every input with at most one rewind,
# a clean audit and a survivor still served. A guard, not a hunt.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime 10s ./internal/memcache
	$(GO) test -run '^$$' -fuzz '^FuzzReadReply$$' -fuzztime 10s ./internal/memcache
	$(GO) test -run '^$$' -fuzz '^FuzzHardenedRequest$$' -fuzztime 10s ./internal/memcache
	$(GO) test -run '^$$' -fuzz '^FuzzHardenedRequest$$' -fuzztime 10s ./internal/httpd

# The evaluation at reduced scale (all 14 experiments, the three live
# claims included), then one iteration of each mechanism benchmark (the
# guard scope, the deferred store and its apply, a storage hit, a
# pipeline of sixteen hardened gets, the contended shard lock, the
# client-to-worker hand-off, a keep-alive GET on both httpd arms) so they keep compiling and running; time them with
# -benchtime=2s -count=5.
bench-smoke:
	$(GO) run ./cmd/sdrad-bench -quick
	$(GO) test -run '^$$' -bench 'BenchmarkGuardScope(Pair)?$$' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'Benchmark(DeferredSetApply|StorageHit|StorageReplace|ShardLockContended|PipelineGets16)$$' -benchtime=1x ./internal/memcache
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

# The escalation ladder's two named tests (one domain walked to shedding
# on a manual clock while a sibling serves; memcached's degraded path and
# readmission with its store intact), then the recovery claim (rewind >= 3x
# cheaper than restart, both arms measured in this run), as the
# policy-gate CI job runs them.
policy-gate:
	$(GO) test -count=1 -v -run 'TestPolicyLadderWhileASiblingServes' ./internal/core
	$(GO) test -count=1 -v -run 'TestPolicyLadderServesDegradedAndKeepsTheStore' ./internal/memcache
	$(GO) run ./cmd/sdrad-bench -quick -recovery

# The router tests with -v (steady traffic, an attack absorbed in place,
# a killed backend's bounded burst, spill and probation flap, a
# quarantine routed around and readmitted, a Stop with a client still
# connected, all on a manual clock), then the routed kill cell's claim
# (availability >= 0.95 with one of three backends killed mid-run), as
# the cluster-gate CI job runs them.
cluster-gate:
	$(GO) test -count=1 -v -run '^TestRouter' ./internal/cluster
	$(GO) run ./cmd/sdrad-bench -quick -cluster

ci: build vet fmt-check chaos-clockless monitor-admits pkru-writers trap-recovers one-host examples test race chaos-smoke chaos-race fuzz-smoke bench-smoke policy-gate cluster-gate
