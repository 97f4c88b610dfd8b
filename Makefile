# Local verify and CI run the exact same commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green gate.

GO ?= go

.PHONY: all build test test-purego test-full fuzz-smoke determinism vet fmt-check benchmark-check bench-smoke bench-json kernels conformance cover loadtest examples loc ci

all: ci

build:
	$(GO) build ./...

# Fast gate: -short skips the long cases: the N = 1,024 and P = 256
# conformance digests, the paper-scale numeric conformance run and a few
# paper-scale checks in internal/bench and internal/conflux. internal/xpart
# runs whole: ~0.5 s plain, ~4 s under -race on a 2-core host (go1.24.0,
# 2026-10-19).
test:
	$(GO) test -race -short ./...

# The `purego` build tag drops the AVX2+FMA assembly micro-kernel, so the
# portable one computes every 6×8 tile of the blocked GEMM/TRSM/LU paths on
# the amd64 CI host too, full and ragged alike. The tag is test-only: no
# shipped binary is built with it. ./internal/conflux runs the unit tests of
# the three 2.5D engines, COnfLUX, CANDMC and Cholesky, which share its step
# loop and its GemmRows update, on the portable kernel (Cholesky's v = 16 and
# 32 cases reach the packed path). internal/trisolve rides along because its
# tile updates run on the streamed GEMM loop those packages share. So does
# the golden-digest test: the one digest that depends on the micro-kernel's
# rounding (COnfLUX at v = 16) must skip on the portable kernel, and every
# other recorded shape — Cholesky's, whose v < 16 keeps its update on the
# streamed loop, included — must still match bit for bit. The solution
# digests record one value per kernel, so the portable one is checked here.
test-purego:
	$(GO) test -tags purego ./internal/blas ./internal/lapack ./internal/conflux ./internal/trisolve
	$(GO) test -tags purego -run 'TestConformance(Golden|Solution)Digests' .

# Ten seconds of coverage-guided fuzzing of the layout/collect round trip
# (shape × grid × layer × payload mode against the closed-form volume), on
# top of the checked-in seed corpus every plain `go test` run replays.
# -fuzz takes one target in one package per invocation. The second line does
# the same for mailbox matching: byte-string programs of puts and takes on a
# 2–5 rank world, under each executor, against a sequential per-stream model.
# The third holds the booked row swap to the per-part ping-pong it replaces:
# part list × arrival order × topology preset, schedule and report bit for bit.
# The fourth drives GemmRows across the streamed and packed paths and every
# blocking edge: one call equals the same call one row at a time bit for bit
# (a ragged tile writes back like a full one), and both stay within the
# documented bound of GemmRef. The fifth holds the streamed GEMM row — the
# AVX2 vector stream on amd64 — to GemmRef's plain Go loop bit for bit (any
# NaN matching any NaN): n across every 8-, 4- and single-column tail, a
# strided B, and NaN, ±Inf and signed zeros in every operand. The sixth
# prices a few recorded engine schedules under fuzzed α, β, link and
# straggler factors: every clock is nondecreasing in each cost, and scaling
# α and β by 2^k scales every clock by exactly 2^k — in the report and in
# the marked report of the factorize-plus-solve schedule, which priced under
# the recording machine equals the live one. The seventh feeds confluxd arbitrary query strings:
# parsing never panics, and every request it accepts canonicalizes to a
# fixed point with a stable cache key.
# The eighth holds confluxd's /v1/plan appender to encoding/json: equal
# bytes for any response, or both refuse it (a non-finite float).
# The ninth draws small lower-bound problems (depth ≤ 4, ≤ 4 terms of 1–3
# variables, scales in [1/8, 8]) and a budget X: ψ(X) is certified within
# 1e-12 of its own feasible point and bounds the product at a random one.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScatterGather -fuzztime 10s ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzMailboxMatching -fuzztime 10s ./internal/smpi
	$(GO) test -run '^$$' -fuzz FuzzSwapRows -fuzztime 10s ./internal/smpi
	$(GO) test -run '^$$' -fuzz FuzzGemmRows -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz FuzzGemmAccum -fuzztime 10s ./internal/blas
	$(GO) test -run '^$$' -fuzz FuzzPriceSchedule -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz FuzzPlanParams -fuzztime 10s ./cmd/confluxd
	$(GO) test -run '^$$' -fuzz FuzzPlanBody -fuzztime 10s ./cmd/confluxd
	$(GO) test -run '^$$' -fuzz FuzzPsi -fuzztime 10s ./internal/xpart

# Every digest test twice at GOMAXPROCS 1 and 4 (ROADMAP 9(e)): reports,
# factors and solutions must not depend on how many threads run the ranks.
# Never more than 4 CPUs, so it fits a shared CI host.
determinism:
	$(GO) test -count=2 -cpu 1,4 -run 'TestConformance(GoldenDigests|SolutionDigests|VolumeDigests|VolumeDigestsCholeskyAndSolve|PricedVolumeDigests|LUEngines|Cholesky)' .

# The full suite, including the long cases -short skips: the tier-1
# command, a blocking CI job (~27 s wall on a 2-core host).
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
# drives every engine through the internal/engine table — and the
# sequential bound checked against the pebbling and out-of-core schedules.
# The coverage profile of that table and of the 2.5D engine is written to
# conformance_engine.out and uploaded by CI, so it shows which lines of the
# shared step loop each row policy (COnfLUX masking, CANDMC swapping,
# Cholesky's symmetric policy) exercises. Also runs inside `make test`; kept
# addressable so CI gates on it explicitly.
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
# allocs/op and B/op in the CI log, where a per-step loop over the whole grid
# shows as a jump in objects, and state sized by N on every rank as a jump in
# bytes, long before either shows in seconds. -short skips the three replay
# benchmarks at P=1024: COnfLUX and CANDMC at paper scale (N=16384; 3.6–4.1 s
# and 4.6 s per op on a 2-core host, 49 s and 42 s before the engines'
# per-step control flow was cut down to what a rank owns) and the 2D engine,
# LibSci at N=4096 (1.4 s, 2026-10-17). Drop -short, or run
# `go test -bench 'FactorizeVolume(Paper|LibSciP1024)' -benchtime=1x -benchmem -run='^$$' .`,
# to log their bytes per op at scale.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' -short ./...

# The two gated records, re-measured and diffed against their committed
# copies; CI uploads both runs. Host speed is measured by the benchmark
# module (benchmark/, BENCHMARK.json), not here.
#  - BENCH_topo_run.json: the topology sweep (replication depth × network
#    model, DESIGN.md §14), compared against the committed small-scale
#    record BENCH_topo.json. Every number in it is simulated, so benchdiff
#    compares exactly and -exit makes any drift a hard failure — this is a
#    determinism gate, not a perf gate. Regenerate the record with
#    `confluxbench -exp topology -scale small -json BENCH_topo.json`.
#  - BENCH_kernels_run.json: the local level-3 kernel suite (blocked
#    GEMM/TRSM/LU panel vs the seed straight loop, DESIGN.md §15),
#    compared against the committed record BENCH_kernels.json. Rows use
#    benchdiff's 10% time threshold; the headline 512×512 blocked-GEMM
#    speedup additionally has a hard ≥4x floor, and -exit makes either
#    failure fatal — the kernels are what lets numeric conformance run at
#    paper scale. Regenerate the record with
#    `confluxbench -exp kernels -json BENCH_kernels.json`.
bench-json:
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

# Every examples/ binary, run once: README's entry points, each of which
# exits non-zero through log.Fatal when the public API under it fails. All
# seven take ~0.5 s after the build on a 2-core host. Then the two checking
# commands: luverify factorizes one matrix on all four LU engines and exits 1
# on a residual above 1e-9 (its rows are printed), and lubound prints each
# kernel's bounds at its default point; together they take under 0.1 s.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; done
	@for f in "" -general; do echo "== cmd/luverify $$f"; $(GO) run ./cmd/luverify $$f || exit 1; done
	@for k in lu mmm cholesky; do echo "== cmd/lubound -kernel $$k"; $(GO) run ./cmd/lubound -kernel $$k > /dev/null || exit 1; done

# Tracked non-test Go lines per package, outside the nested benchmark/
# module, and their total: the counts ROADMAP's line-count gates cite.
loc:
	@git ls-files -- '*.go' ':!:*_test.go' ':!:benchmark/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# benchmark-check rides along because the nested benchmark module holds
# values of root types (trace.Topology, conflux options) that a root change
# can break without any root test noticing; examples does the same for the
# examples/ binaries. conformance and loadtest run as CI runs them:
# conformance's long cases skip under test's -short.
ci: fmt-check vet build test fuzz-smoke determinism test-purego conformance loadtest examples benchmark-check
