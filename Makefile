# Local verify and CI run the exact same commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green gate.

GO ?= go

.PHONY: all build test test-purego test-full fuzz-smoke vet fmt-check benchmark-check bench-smoke bench-json kernels conformance cover loadtest ci

all: ci

build:
	$(GO) build ./...

# Fast gate: -short skips the exhaustive internal/xpart searches (~16s).
test:
	$(GO) test -race -short ./...

# The `purego` build tag drops the AVX2+FMA assembly micro-kernel, so the
# portable one computes every 6×8 tile of the blocked GEMM/TRSM/LU paths on
# the amd64 CI host too, full and ragged alike. The tag is test-only: no
# shipped binary is built with it. ./internal/conflux runs the unit tests of
# both 2.5D engines, COnfLUX and CANDMC, which share its step loop, on the
# portable kernel. internal/trisolve rides along because its tile updates run
# on the streamed GEMM loop those packages share. So does
# the golden-digest test: the one digest that depends on the micro-kernel's
# rounding (COnfLUX at v = 16) must skip on the portable kernel, and every
# other recorded shape must still match bit for bit.
test-purego:
	$(GO) test -tags purego ./internal/blas ./internal/lapack ./internal/conflux ./internal/trisolve
	$(GO) test -tags purego -run 'TestConformanceGoldenDigests' .

# Ten seconds of coverage-guided fuzzing of the layout/collect round trip
# (shape × grid × layer × payload mode against the closed-form volume), on
# top of the checked-in seed corpus every plain `go test` run replays.
# -fuzz takes one target in one package per invocation. The second line does
# the same for mailbox matching: byte-string programs of puts and takes on a
# 2–5 rank world, under each executor, against a sequential per-stream model.
# The third holds the booked row swap to the per-part ping-pong it replaces:
# part list × arrival order × topology preset, events and report bit for bit.
# The fourth drives GemmRows across the streamed and packed paths and every
# blocking edge: one call equals the same call one row at a time bit for bit
# (a ragged tile writes back like a full one), and both stay within the
# documented bound of GemmRef.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScatterGather -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzMailboxMatching -fuzztime 10s ./internal/smpi
	$(GO) test -run '^$$' -fuzz FuzzSwapRows -fuzztime 10s ./internal/smpi
	$(GO) test -run '^$$' -fuzz FuzzGemmRows -fuzztime 10s ./internal/blas

# The full suite, including the exhaustive lower-bound searches.
test-full:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's benchmark (BENCHMARK.json) is a nested module, so the root
# `go vet ./...` / `go test ./...` never compile it: this target does, so a
# change that removes a root symbol the benchmark imports fails here.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Cross-engine conformance suite under the race detector: all four LU
# engines plus Cholesky on shared seeds, at non-power-of-two rank counts,
# feeding the distributed solve — running on the Session surface, so it
# drives every engine through the internal/engine registry. The coverage
# profile of that registry and of the 2.5D engine is written to
# conformance_engine.out and uploaded by CI, so it shows which lines of the
# shared step loop each row policy (COnfLUX masking, CANDMC swapping)
# exercises. Also runs inside `make test`; kept addressable so CI
# gates on it explicitly.
# -timeout: the N=4096/P=64 numeric paper-scale case (DESIGN.md §15) takes
# ~1½ min under the race detector on a 2-core host at the volume-bounded
# default v = 16 (2026-10-01) — ~6 min at v = 4 since the engines' Schur
# update became one kernel call per step, ~56 min before that — so 30m is
# ample headroom for slower CI hosts. Bare it takes 16 s (29 s at v = 4 on
# the same host and day; 39 s before layout and collect moved one batch per
# owner).
conformance:
	$(GO) test -race -timeout 30m -run 'TestConformance' -v \
		-coverprofile=conformance_engine.out -coverpkg=repro/internal/engine,repro/internal/conflux .
	$(GO) tool cover -func=conformance_engine.out

# Coverage summary: full short-suite profile plus the per-function table
# CI uploads as an artifact.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tee coverage.txt

# Compile and run every benchmark once — catches rotted benchmark code
# without paying for real measurements; -benchmem puts each one-shot replay's
# allocs/op in the CI log, where a per-step loop over the whole grid shows as
# a jump in objects long before it shows in seconds. -short skips the two
# paper-scale (N=16384, P=1024) replay benchmarks, which take 6 s (COnfLUX)
# and 7 s (CANDMC) on a 2-core host (2026-10-01; 49 s and 42 s before the
# engines' per-step control flow was cut down to what a rank owns).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' -short ./...

# Machine-readable measurements, uploaded by CI so the perf trajectory is
# recorded run over run:
#  - BENCH_smoke.json: bytes + simulated α-β time per algorithm (the
#    simulated machine's outputs); gitignored, artifact-only.
#  - BENCH_scale.json: the host-side perf suite (wall clock + allocs per
#    replay), compared against the committed pre-refactor baseline
#    (BENCH_baseline.json, frozen — never regenerate it) by benchdiff —
#    non-blocking, but >10% regressions fail loudly in the log. The
#    committed copy is the paper-scale record; this target overwrites it
#    with a small-scale run, so expect a dirty tree locally and re-commit
#    only when refreshing the record (`-scale paper`).
#  - BENCH_sched.json: the executor sweep (goroutines vs the discrete-
#    event loop on the same COnfLUX replay, DESIGN.md §11), compared
#    against the committed paper-scale record BENCH_events.json — the
#    presets nest, so the small-scale rows overlap the record's.
#    Regenerate the record itself with
#    `confluxbench -exp sched -scale paper -json BENCH_events.json`.
#  - BENCH_topo_run.json: the topology sweep (replication depth × network
#    model, DESIGN.md §14), compared against the committed small-scale
#    record BENCH_topo.json. Every number in it is simulated, so benchdiff
#    compares exactly and -exit makes any drift a hard failure — this is a
#    determinism gate, not a perf gate. Regenerate the record with
#    `confluxbench -exp topology -scale small -json BENCH_topo.json`.
#  - BENCH_kernels_run.json: the local level-3 kernel suite (blocked
#    GEMM/TRSM/LU panel vs the seed straight loop, DESIGN.md §15),
#    compared against the committed record BENCH_kernels.json. Rows use
#    the perf threshold; the headline 512×512 blocked-GEMM speedup
#    additionally has a hard ≥4x floor, and -exit makes either failure
#    fatal — the kernels are what lets numeric conformance run at paper
#    scale. Regenerate the record with
#    `confluxbench -exp kernels -json BENCH_kernels.json`.
bench-json:
	$(GO) run ./cmd/confluxbench -exp smoke -json BENCH_smoke.json
	$(GO) run ./cmd/confluxbench -exp perf -scale small -json BENCH_scale.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_scale.json
	$(GO) run ./cmd/confluxbench -exp sched -scale small -json BENCH_sched.json
	$(GO) run ./cmd/benchdiff BENCH_events.json BENCH_sched.json
	$(GO) run ./cmd/confluxbench -exp topology -scale small -json BENCH_topo_run.json
	$(GO) run ./cmd/benchdiff -exit BENCH_topo.json BENCH_topo_run.json
	$(GO) run ./cmd/confluxbench -exp kernels -json BENCH_kernels_run.json
	$(GO) run ./cmd/benchdiff -exit BENCH_kernels.json BENCH_kernels_run.json

# The kernel micro-benchmark suite with allocation reporting: the Go
# benchmarks behind the BENCH_kernels.json rows, for interactive tuning.
kernels:
	$(GO) test -bench 'BenchmarkKernel' -benchmem -run '^$$' ./internal/blas

# Planner-service load gate: ~50 concurrent clients hammer one plan point
# through confluxd's full HTTP stack; the deterministic result cache must
# collapse the burst to exactly one simulation (asserted via /v1/stats),
# every client must get 200 with the same exact answer, and no goroutines
# may leak after the burst. Runs under the race detector. See DESIGN.md
# §13.
loadtest:
	$(GO) test -race -count=1 -run 'TestConfluxdLoad' -v ./cmd/confluxd

ci: fmt-check vet build test fuzz-smoke test-purego
