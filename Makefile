# CI and humans invoke the same targets: `make ci` is exactly what
# .github/workflows/ci.yml runs, in the same order (TestMakeCIMatchesWorkflow).

GO ?= go

.PHONY: build test race headline-claims parallel-race bench bench-test bench-digests fuzz-smoke smoke examples-smoke check-smoke gbd-smoke gbd-smoke-race tune-smoke lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Under the race detector one 65536-rank scenario cell peaks at about 6 GB
# of RSS and the 16384-rank golden at about 2 GB, so a single test process
# that runs the 16384-rank golden and then the 65536-rank tests exhausts an
# 8 GB host. Each 65536-rank test runs in a process of its own; every other
# test runs as before, with -skip of those two. Every test still runs under
# the detector.
race:
	$(GO) test -race -run '^TestScale64kQuickGolden$$' ./internal/scenario
	$(GO) test -race -run '^TestScale64kQuickWorkerIdentity$$' ./internal/scenario
	$(GO) test -race -skip '^TestScale64kQuick(Golden|WorkerIdentity)$$' ./...

# The paper's headline claims as executable assertions (TestHeadlineClaims,
# ~22 s on a 2-core VM): each row of EXPERIMENTS.md's headline table, checked
# at the mean over reps or the sum over the sweep. The test is build-tagged
# !race, so `make race` skips it; this target runs it without the detector.
headline-claims:
	$(GO) test -run '^TestHeadlineClaims$$' ./internal/harness

# The partitioned kernel's dedicated race exercise: a multi-group 4096-rank
# cell with its event loop spread across 8 worker threads, under the race
# detector (gb/race_test.go), then twenty times over the worker pool's
# lifecycle tests (internal/sim/pool_test.go: helpers exit with Run however
# it ends, and a pool has no more members than GOMAXPROCS) and the kernel
# metrics' determinism test (internal/sim/metrics_test.go: every sim_*
# metric is the same at 1, 2 and 4 workers). The first test is build-tagged
# race-only, so plain `make race` runs it too; this named target is the
# targeted variant CI reports on its own line, mirroring gbd-smoke-race.
parallel-race:
	$(GO) test -race -run TestParallelKernelMultiGroupRace -v ./gb
	$(GO) test -race -count=20 -run '^(TestPool|TestMetricsIdenticalAtEveryWorkerCount$$)' ./internal/sim

# One iteration of every layer microbenchmark (internal/ and gb/gbd): a
# smoke pass proving each still runs, not a timing run. The simulator is
# timed by the repository benchmark (bench/run.sh); what it simulates is
# pinned by the goldens and TestHeadlineClaims.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repository benchmark (bench/, run by bench/run.sh) is a Go module of
# its own, so the root `go test ./...` skips it. Its tests (~3 s) run every
# workload in miniature against this checkout and compare each untraced
# pass's digest with a traced one's: a change that breaks the benchmark or
# lets tracing perturb a result fails here. They do not check the pinned
# seed-1 digests; bench-digests does.
bench-test:
	cd bench && $(GO) test ./...

# The real workloads at seed 1, one short run each (~30 s once built): the
# benchmark checks every pass's digest against the one pinned in
# bench/testdata and exits non-zero on any mismatch, any failed operation or
# any broken paper ordering. A change that moves a simulated result the
# benchmark judges by fails here instead of at the next benchmark run.
bench-digests:
	bash bench/run.sh --seed 1 --seconds 1 --trace 0

# Short native-fuzzing smoke runs: the scenario spec parser (parser and
# validator drift), the simcheck end-to-end oracle (each fuzz input is a
# generator seed that expands into a full scenario checked against every
# invariant), and gbd's request decoding (no panic, 400-only rejections,
# bounded cell plans). Enough executions to catch drift, fast enough for
# every CI run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzScenario -fuzztime 10s ./internal/simcheck
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 10s ./gb/gbd

# Bounded randomized invariant sweep (~10s): 100 generated scenarios through
# the simcheck oracle. A printed failing seed reproduces exactly with
# `gbcheck -n 1 -seed <seed> -v`; overnight sweeps raise -n and -max-ranks.
check-smoke:
	$(GO) run ./cmd/gbcheck -n 100 -seed 1 -max-ranks 64

# End-to-end CLI smoke: the -list inventory, every paper figure at quick
# scale diffed against its golden at one and two workers (~1 s each), then
# the shipped example scenarios diffed against their golden tables — the
# steady single-application sweep and the time-varying multi-job cluster
# (bursty arrivals × bursty failures). The scenario engine guarantees
# byte-identical output at any worker count, so the diffs are exact.
smoke:
	$(GO) run ./cmd/gbexp -list > /dev/null
	$(GO) run ./cmd/gbexp -exp all -quick -parallel 1 \
		| diff -u examples/paper/all-quick.golden -
	$(GO) run ./cmd/gbexp -exp all -quick -parallel 2 \
		| diff -u examples/paper/all-quick.golden -
	$(GO) run ./cmd/gbexp -scenario examples/scenarios/modern-weibull.json \
		| diff -u examples/scenarios/modern-weibull.golden -
	$(GO) run ./cmd/gbexp -scenario examples/scenarios/cluster-burst.json -parallel 2 \
		| diff -u examples/scenarios/cluster-burst.golden -
	@echo smoke ok

# Build AND run every example as a smoke test: the examples are the gb
# facade's living documentation, so they must keep executing, not just
# compiling.
examples-smoke:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/hpl > /dev/null
	$(GO) run ./examples/cgfailure > /dev/null
	@echo examples ok

# gbd daemon end-to-end smoke: start the service on a free port, stream the
# shipped scenario over SSE, diff the cells against their golden, prove
# cached responses are byte-identical, and drain cleanly on SIGTERM (see
# scripts/gbd_smoke.sh). The race variant rebuilds the daemon with the race
# detector and repeats the whole exercise.
gbd-smoke:
	sh scripts/gbd_smoke.sh

gbd-smoke-race:
	sh scripts/gbd_smoke.sh -race

# gbtune closed-loop optimizer smoke: search the shipped smoke-tune spec
# in-process and diff the report against its golden, then repeat through a
# live gbd daemon (POST /v1/tune) demanding byte-identical output — the
# library/service parity contract (see scripts/tune_smoke.sh).
tune-smoke:
	sh scripts/tune_smoke.sh

# staticcheck is a blocking lint step: CI installs it and fails the build on
# findings. A bare local toolchain can opt out with STATICCHECK=off.
lint:
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@if [ "$(STATICCHECK)" = "off" ]; then \
		echo "staticcheck disabled (STATICCHECK=off)"; \
	elif command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed (install it, or set STATICCHECK=off to skip)"; \
		exit 1; \
	fi

ci: lint build race headline-claims bench bench-test bench-digests smoke examples-smoke check-smoke fuzz-smoke gbd-smoke gbd-smoke-race tune-smoke parallel-race
