# Developer checks for the asymfence simulator. `make check` is the
# everything gate; individual targets below.

GO ?= go

.PHONY: check fmt vet doccheck build test race race-runner check-store \
	check-runtime check-conform check-bench check-flaky smoke bench \
	check-invariants

check: fmt vet doccheck build test check-bench race-runner check-store check-invariants check-runtime check-conform smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Documentation lint (tools/doccheck): package docs everywhere, doc
# comments on every exported identifier in internal packages.
doccheck:
	$(GO) run ./tools/doccheck ./runtime/... ./internal/... ./cmd/... ./examples/... .
	$(GO) run ./tools/doccheck -exported ./runtime/... ./internal/...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never builds it; this target compiles, vets and
# short-tests it against the current public API, then runs TestGolden,
# which -short skips: it recomputes the pinned 64-core kernel-row
# digests, the suite tables' hash and the seeds 1-600 conform report
# (about a minute on 2 vCPUs).
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	cd bench && $(GO) test -count=1 -run TestGolden ./...

# Flakiness gate: the whole suite ten times over, shuffled, at three
# GOMAXPROCS settings, under the race detector. Slow; CI runs it
# nightly rather than per push.
check-flaky:
	$(GO) test -race -count=10 -cpu 1,2,4 -shuffle=on ./...

# Each simulation is still a single deterministic cycle loop; the only
# goroutines live in the experiment runner's worker pool. The race
# target keeps the whole tree race-clean under that fan-out.
race:
	$(GO) test -race ./...

# The engine's concurrency contract under the race detector: the
# sequential-vs-parallel equivalence, cache accounting and cancellation
# tests, plus the runner package's own suite.
race-runner:
	$(GO) test -race -run 'Equivalence|CacheHit|Cancellation' -count=1 .
	$(GO) test -race -count=1 ./internal/experiments/runner/

# The persistence layer under the race detector: the content-addressed
# store's crash-safety and write-fault suite, the runner's read-through
# tier contract, the warm-vs-cold byte-equivalence tests, and the CLI
# end to end through the store (`asymsim -store D run`, serve, trace).
# Every test runs in its own t.TempDir, so no state leaks between runs.
check-store:
	$(GO) test -race -count=1 ./internal/store/
	$(GO) test -race -count=1 -run 'WriteFaults' ./internal/faults/
	$(GO) test -race -count=1 -run 'Tier|StoreMetrics' ./internal/experiments/runner/
	$(GO) test -race -count=1 -run 'TestStore|TestRunBatchStore' .
	$(GO) test -race -count=1 -run 'TestCLI' ./cmd/asymsim/

# The real-hardware fence runtime under the race detector: the
# asymruntime mode/registration suite, the exactly-once deque stress
# and the torn-read TLRW stress (each in every available fence mode) —
# run twice, once resolving membarrier naturally and once with the
# seq-cst fallback forced through the environment, so the portable path
# cannot rot on membarrier-capable CI machines (see HARDWARE.md).
check-runtime:
	$(GO) test -race -count=1 ./runtime/...
	ASYMFENCE_MODE=fallback $(GO) test -race -count=1 ./runtime/...

# Cross-domain litmus conformance (ROBUSTNESS.md §8): the TSO
# reference enumerator, the real-goroutine litmus runner and the
# conformance campaign suites under the race detector, the fence
# runtime's fault-injection/degradation suite, the mid-run
# mode-degradation torture tests for the deque and the TLRW read-lock,
# and the quick CLI campaign (50 seeds x 5 designs x both fence modes)
# with its byte-reproducible report.
check-conform:
	$(GO) test -race -count=1 ./internal/tso/ ./runtime/litmusrun/
	$(GO) test -race -count=1 -run 'TestFault|TestHeavyFence|TestConcurrentDegradation|TestStatsSnapshot' ./runtime/
	$(GO) test -race -count=1 -run 'TestTorture' ./runtime/thedeque/ ./runtime/tlrw/
	$(GO) test -race -count=1 -run 'TestConform|TestMinimize' . ./cmd/asymsim/
	$(GO) run ./cmd/asymsim conform -quick -q

# Quick end-to-end sanity: the headline experiment at reduced scale on
# a parallel worker pool, plus the quick cross-domain conformance sweep.
smoke:
	$(GO) run ./cmd/asymsim -scale 0.1 -horizon 20000 -j 4 headline
	$(GO) run ./cmd/asymsim conform -quick -q

# The runtime invariant oracle under the race detector: the litmus
# suite and seeds 1-100 of the random litmus generator with all
# checkers (and, for the generated seeds, fault injection) on for every
# design, the broken-fence regression, the generator's own smoke test,
# and the oracle/injector unit suites (see ROBUSTNESS.md).
check-invariants:
	$(GO) test -race -count=1 ./internal/check/ ./internal/faults/
	$(GO) test -race -count=1 -run 'Checker|BrokenFence|ConfigValidate|Deadlock' ./internal/sim/
	$(GO) test -race -count=1 -run 'TestGenerateSmoke' ./internal/workloads/litmus/

# Short per-subsystem microbenchmarks (NoC, cache, directory, cycle
# kernel). Quick enough for the inner loop; see PERFORMANCE.md for how
# to read and extend them.
bench:
	$(GO) test -run XX -bench . -benchtime 200ms \
		./internal/noc/ ./internal/cache/ ./internal/coherence/ ./internal/sim/
