package conflux

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/daap"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/oocore"
	"repro/internal/pebble"
	"repro/internal/smpi"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/xpart"
)

// Conformance suite: for shared random seeds, every engine must factor the
// SAME inputs to below-tolerance residuals — ‖P·A − L·U‖/‖A‖ for the LU
// engines, ‖A − L·Lᵀ‖/‖A‖ for Cholesky on SPD input — across rank counts
// including non-powers-of-two (p ∈ {3, 5, 6}) and dimensions not divisible
// by any engine's block size. This is the cross-engine contract the
// end-to-end solver relies on: factors from any engine feed the same
// distributed triangular solve. The suite runs on the Session surface, so
// it also pins the dispatch path through the engine table.

const conformanceTol = 1e-9

// conformanceRanks: non-powers-of-two plus the power-of-two grids (4, 8).
var conformanceRanks = []int{3, 4, 5, 6, 8}

// conformanceDims: 33 and 45 are divisible by neither the 2D engines' block
// sizes (32 and 16) nor the typical 2.5D blocking parameters; 64 divides
// evenly by all of them.
var conformanceDims = []int{33, 45, 64}

// conformanceLU lists the paper's four measured LU implementations.
var conformanceLU = []Algorithm{COnfLUX, CANDMC, LibSci, SLATE}

func conformanceSeed(n, p int) uint64 { return uint64(n)*1009 + uint64(p)*31 }

// conformanceSession builds the one-algorithm session each case runs on.
func conformanceSession(t *testing.T, algo Algorithm, p int) *Session {
	t.Helper()
	return mustNew(t, WithRanks(p), WithAlgorithm(algo))
}

func TestConformanceLUEngines(t *testing.T) {
	for _, n := range conformanceDims {
		for _, p := range conformanceRanks {
			// One shared general (non-dominant) matrix per (n, p): every
			// engine must pivot its way through the same input.
			a := mat.Random(n, n, conformanceSeed(n, p))
			for _, algo := range conformanceLU {
				t.Run(fmt.Sprintf("%s/n=%d/p=%d", algo, n, p), func(t *testing.T) {
					// Every case is a self-contained simulated world (own
					// mailboxes, own timeline shards) reading the shared
					// input matrix, so the matrix runs across host cores.
					t.Parallel()
					s := conformanceSession(t, algo, p)
					res, err := s.Factorize(t.Context(), a)
					if err != nil {
						t.Fatal(err)
					}
					if err := testutil.IsPermutation(res.Perm, n); err != nil {
						t.Fatalf("perm: %v", err)
					}
					if r := testutil.ResidualLUPerm(a, res.LU, res.Perm); r > conformanceTol {
						t.Fatalf("residual %v > %v", r, conformanceTol)
					}
					if res.Volume == nil || res.Volume.TotalBytes() == 0 {
						t.Fatal("no volume report")
					}
				})
			}
		}
	}
}

func TestConformanceCholesky(t *testing.T) {
	for _, n := range conformanceDims {
		for _, p := range conformanceRanks {
			t.Run(fmt.Sprintf("n=%d/p=%d", n, p), func(t *testing.T) {
				t.Parallel() // self-contained world per case, as above
				a := testutil.SPD(n, conformanceSeed(n, p))
				// Note: at awkward rank counts (e.g. p=3) the square-layer
				// grid optimizer may disable all but one rank, so the
				// conformance contract here is numerical only.
				s := conformanceSession(t, Cholesky, p)
				l, _, err := s.FactorizeSPD(t.Context(), a)
				if err != nil {
					t.Fatal(err)
				}
				if r := testutil.ResidualCholesky(a, l); r > conformanceTol {
					t.Fatalf("residual %v > %v", r, conformanceTol)
				}
			})
		}
	}
}

// TestConformanceSolveAcrossEngines closes the loop: factors from every LU
// engine, fed through the distributed solve, must reproduce the same
// solution of the same system. One session per engine carries its
// factorization and solve, exercising the session-owned solve geometry.
func TestConformanceSolveAcrossEngines(t *testing.T) {
	n, nrhs := 45, 3
	for _, p := range conformanceRanks {
		a := mat.Random(n, n, conformanceSeed(n, p))
		b := mat.Random(n, nrhs, conformanceSeed(n, p)+1)
		for _, algo := range conformanceLU {
			s := conformanceSession(t, algo, p)
			res, err := s.Factorize(t.Context(), a)
			if err != nil {
				t.Fatalf("%s p=%d: %v", algo, p, err)
			}
			x, err := res.SolveManyFactoredContext(t.Context(), b)
			if err != nil {
				t.Fatalf("%s p=%d solve: %v", algo, p, err)
			}
			if be := testutil.SolveBackwardError(a, x, b); be > conformanceTol {
				t.Fatalf("%s p=%d backward error %v", algo, p, be)
			}
		}
	}
}

// TestConformanceNumericPaperScale is the headline end-to-end correctness
// check: a numeric (payload-carrying) factorize+solve at N=4096 / P=64 —
// a Table-2 point of the paper — made tractable by the cache-blocked
// level-3 kernels (DESIGN.md §15), where the suite's previous numeric
// ceiling was n=45. It also pins the §15 determinism contract at scale:
// the same factorization run twice must agree to the last bit of every LU
// entry and pivot. Behind -short: the run takes ~50 s bare and ~6 minutes
// under the race detector on a 2-core host (make conformance raises go
// test's timeout accordingly).
func TestConformanceNumericPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale numeric conformance skipped in -short mode")
	}
	n, p, nrhs := 4096, 64, 2
	a := mat.Random(n, n, conformanceSeed(n, p))
	b := mat.Random(n, nrhs, conformanceSeed(n, p)+1)

	factor := func() *Result {
		t.Helper()
		// One factorization runs ~20 s bare and ~3 min under the race
		// detector — too close to the 10 min session safety default on a
		// slower host; the harness timeout still bounds the test.
		s := mustNew(t, WithRanks(p), WithAlgorithm(COnfLUX), WithTimeout(25*time.Minute))
		res, err := s.Factorize(t.Context(), a)
		if err != nil {
			t.Fatalf("factorize: %v", err)
		}
		return res
	}

	ref := factor()
	if err := testutil.IsPermutation(ref.Perm, n); err != nil {
		t.Fatalf("perm: %v", err)
	}
	if r := testutil.ResidualLUPerm(a, ref.LU, ref.Perm); r > conformanceTol {
		t.Fatalf("residual %v > %v", r, conformanceTol)
	}

	// Rep 2: bit-identical factors and pivots.
	rep := factor()
	for i := range ref.Perm {
		if ref.Perm[i] != rep.Perm[i] {
			t.Fatalf("pivot %d differs across reps: %d != %d", i, ref.Perm[i], rep.Perm[i])
		}
	}
	for i := 0; i < n; i++ {
		r1, r2 := ref.LU.Row(i), rep.LU.Row(i)
		for j := range r1 {
			if math.Float64bits(r1[j]) != math.Float64bits(r2[j]) {
				t.Fatalf("LU(%d,%d) differs across reps: %x != %x",
					i, j, math.Float64bits(r1[j]), math.Float64bits(r2[j]))
			}
		}
	}

	x, err := ref.SolveManyFactoredContext(t.Context(), b)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if be := testutil.SolveBackwardError(a, x, b); be > conformanceTol {
		t.Fatalf("backward error %v > %v", be, conformanceTol)
	}
}

// factorDigest is the FNV-64a hash of a factorization: every LU entry's
// float64 bits, row-major, little-endian, then every pivot as a uint64.
func factorDigest(res *Result) string {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < res.LU.Rows; i++ {
		for _, x := range res.LU.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	for _, p := range res.Perm {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestConformanceGoldenDigests pins the numeric factors of the four LU
// engines and of Cholesky to fixed artifacts (ROADMAP 4a): LU and pivots of
// Factorize(mat.Random(n, n, seed)) must hash to the recorded values. A
// kernel or layout change that alters a single bit of a factor — a different
// summation order, a fused multiply-add — fails here. amd64 only: the Go
// compiler fuses x*y+z on arm64, ppc64le, s390x and riscv64, which
// legitimately changes the bits. Where the engine's blocking parameter
// reaches blas.GemmRows' packed path (v ≥ 16: COnfLUX at N=1,024/P=16) the
// factors pass through the micro-kernel, whose AVX2+FMA assembly and portable
// fallback round differently, so that digest names the kernel it was recorded
// on and is skipped on any other (`make test-purego` runs this test to prove
// the skip is clean and every other shape still matches). The COnfLUX digests
// at (517, 12, 3) and (1,024, 16, 1) were re-recorded when the default v
// moved 4 → 8 and 4 → 16 there (costmodel.COnfLUXBlockSize); the other 2.5D
// digests date from before the Schur update became one indexed-row kernel
// call per step. The 2D digests were recorded at 8835578, before LibSci's row
// swaps moved to a rendezvous; LibSci and SLATE share them because partial
// pivoting with a k-ordered tile update rounds the same at either block size,
// and they match under `-tags purego` too, so they carry no ISA gate.
func TestConformanceGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64 (no fused multiply-add in compiled Go)")
	}
	type golden struct {
		digest string
		isa    string // blas.KernelISA() the digest depends on; "" = none
	}
	cases := []struct {
		n, p    int
		seed    uint64
		long    bool
		digests map[Algorithm]golden
	}{
		{256, 8, 5, false, map[Algorithm]golden{COnfLUX: {digest: "4696b57ee06ff163"}, CANDMC: {digest: "238c6a075c0898dc"},
			LibSci: {digest: "e204e674e424bf44"}, SLATE: {digest: "e204e674e424bf44"}}},
		{517, 12, 3, false, map[Algorithm]golden{COnfLUX: {digest: "4ccc23fe634402dc"}, CANDMC: {digest: "e7abca20d45e8861"},
			LibSci: {digest: "ed6e573abb301935"}, SLATE: {digest: "ed6e573abb301935"}}},
		{1024, 16, 1, true, map[Algorithm]golden{COnfLUX: {digest: "a00c4b64c2b46139", isa: "avx2+fma"}, CANDMC: {digest: "36e8ec37fefe591e"},
			LibSci: {digest: "d578249acb08036c"}, SLATE: {digest: "d578249acb08036c"}}},
	}
	for _, tc := range cases {
		for _, algo := range conformanceLU {
			t.Run(fmt.Sprintf("%s/n=%d/p=%d/seed=%d", algo, tc.n, tc.p, tc.seed), func(t *testing.T) {
				want := tc.digests[algo]
				if tc.long && testing.Short() {
					t.Skip("N=1024 digest skipped in -short mode")
				}
				if want.isa != "" && want.isa != blas.KernelISA() {
					t.Skipf("digest recorded on the %s micro-kernel, this build runs %s", want.isa, blas.KernelISA())
				}
				t.Parallel()
				s := conformanceSession(t, algo, tc.p)
				res, err := s.Factorize(t.Context(), mat.Random(tc.n, tc.n, tc.seed))
				if err != nil {
					t.Fatal(err)
				}
				if got := factorDigest(res); got != want.digest {
					t.Fatalf("digest %s, recorded %s", got, want.digest)
				}
			})
		}
	}
	// Cholesky's L, on testutil.SPD(n, 7n+p) with an empty perm: a 2×2×2
	// grid at (256, 8), 3×3×1 with three idle ranks and a ragged last tile
	// at (517, 12), 4×4×4 at (512, 64). Its POTRF is plain Go; its panel
	// solve and update are the LU engines' TrsmUpperRight and GemmRows, whose
	// v < 16 here keeps them off the micro-kernel, so no digest names a
	// kernel. Re-recorded when the update moved from one dot product per
	// element onto GemmRows, which subtracts each product in turn.
	for _, tc := range []struct {
		n, p   int
		digest string
	}{{256, 8, "976a860beb83e0cc"}, {517, 12, "e83d1796772b386e"}, {512, 64, "5f8fcdfde7374d9a"}} {
		t.Run(fmt.Sprintf("Cholesky/n=%d/p=%d", tc.n, tc.p), func(t *testing.T) {
			t.Parallel()
			s := conformanceSession(t, Cholesky, tc.p)
			l, _, err := s.FactorizeSPD(t.Context(), testutil.SPD(tc.n, uint64(7*tc.n+tc.p)))
			if err != nil {
				t.Fatal(err)
			}
			if got := factorDigest(&Result{LU: l}); got != tc.digest {
				t.Fatalf("digest %s, recorded %s", got, tc.digest)
			}
		})
	}
}

// solutionDigest is the FNV-64a hash of a distributed solve: every entry of
// X's float64 bits, row-major, little-endian, then SolveBytes and the bits
// of SolveTime.
func solutionDigest(x *Matrix, res *Result) string {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < x.Rows; i++ {
		for _, v := range x.Row(i) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(res.SolveBytes))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.SolveTime))
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestConformanceSolutionDigests pins SolveMany's solution bits, with one
// refinement sweep, on 8 right-hand sides: A = mat.Random(n, n, seed), B =
// mat.Random(n, 8, seed+1). The first case is the numeric_solve benchmark's
// shape. Every case passes through the packed micro-kernel — the factors at
// v = 16, the refinement's residual A·X everywhere — and the AVX2+FMA
// assembly and the portable kernel round differently, so each case records
// one digest per kernel (blas.KernelISA()); `make test-purego` checks the
// portable ones. amd64 only, as the factor digests.
func TestConformanceSolutionDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("solution digests are recorded on amd64 (no fused multiply-add in compiled Go)")
	}
	for _, tc := range []struct {
		algo    Algorithm
		n, p    int
		seed    uint64
		long    bool
		digests map[string]string // by blas.KernelISA()
	}{
		{COnfLUX, 1024, 16, 1, true, map[string]string{"avx2+fma": "26831f86fb323b8d", "generic": "15dbc14f6d1a3487"}},
		{LibSci, 517, 12, 3, false, map[string]string{"avx2+fma": "bb175dc8716f7bcf", "generic": "cc7cd541dcf3ac76"}},
		{CANDMC, 517, 8, 3, false, map[string]string{"avx2+fma": "cfdfb120d3e59366", "generic": "66b16fd9e8c380aa"}},
	} {
		t.Run(fmt.Sprintf("%s/n=%d/p=%d/seed=%d", tc.algo, tc.n, tc.p, tc.seed), func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("N=1024 digest skipped in -short mode")
			}
			want, ok := tc.digests[blas.KernelISA()]
			if !ok {
				t.Skipf("no digest recorded on the %s micro-kernel", blas.KernelISA())
			}
			t.Parallel()
			s := mustNew(t, WithRanks(tc.p), WithAlgorithm(tc.algo), WithRefineSweeps(1))
			x, res, err := s.SolveMany(t.Context(), mat.Random(tc.n, tc.n, tc.seed), mat.Random(tc.n, 8, tc.seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if got := solutionDigest(x, res); got != want {
				t.Fatalf("digest %s, recorded %s", got, want)
			}
		})
	}
}

// volumeDigest is the FNV-64a hash of a volume replay's report: the world
// size, every rank's sent bytes, received bytes, message count and final
// simulated clock, every phase's bytes and message count in label order, and
// the makespan — floats as their bit patterns, everything little-endian.
func volumeDigest(rep *VolumeReport) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(rep.P))
	for r := 0; r < rep.P; r++ {
		put(uint64(rep.Sent[r]))
		put(uint64(rep.Recv[r]))
		put(uint64(rep.Msgs[r]))
		put(math.Float64bits(rep.Time.Clock[r]))
	}
	phases := make([]string, 0, len(rep.ByPhase))
	for ph := range rep.ByPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		h.Write([]byte(ph))
		put(uint64(rep.ByPhase[ph]))
		put(uint64(rep.PhaseMsgs[ph]))
	}
	put(math.Float64bits(rep.Time.Makespan))
	return fmt.Sprintf("%016x", h.Sum64())
}

// volumeCase is one shape of TestConformanceVolumeDigests: the recorded
// digest of each LU engine's CommVolume under the flat machine and under
// dragonfly-contended ("" = not pinned).
type volumeCase struct {
	n, p    int
	long    bool
	digests map[Algorithm][2]string // flat, dragonfly-contended
	faults  *FaultPlan              // applied to the contended run only
}

// digestPresets are the two machines every volume digest is pinned under.
var digestPresets = [2]string{"flat", "dragonfly-contended"}

// replay2DFaults is the benchmark's replay_2d_faulted fault plan: two 4×
// stragglers and one 8× inter-node link.
var replay2DFaults = FaultPlan{
	Stragglers: []Straggler{{Rank: 37, Factor: 4}, {Rank: 170, Factor: 4}},
	Links:      []LinkFault{{FromNode: 5, ToNode: 41, Factor: 8}},
}

// luVolumeDigests are TestConformanceVolumeDigests' pins. The shapes cover c
// = 1 on a non-square grid with a ragged last tile (COnfLUX runs N=517/P=12
// on 3×4×1 at v=8, CANDMC on 2×3×2, the 2D engines on 3×4), c > 1 (2×2×2 at
// P=8, CANDMC 4×4×4 at P=64), a grid with disabled ranks (COnfLUX takes 5×6×2
// = 60 of 64 ranks) and the benchmark's replay point (8×8×4 at v=8 for both
// 2.5D engines, 16×16 for the 2D ones). The 2.5D digests were recorded at
// d0a2788, before their engines' per-step control flow was rewritten; the 2D
// digests at 8835578, before LibSci's row swaps and pivot searches were
// booked at a rendezvous. The last case is the benchmark's replay_2d_faulted
// point: LibSci at N=2048, P=256 on dragonfly-contended with replay2DFaults.
var luVolumeDigests = []volumeCase{
	{256, 8, false, map[Algorithm][2]string{
		COnfLUX: {"d0bb2e11b7109260", "4f346d17f9668f29"}, CANDMC: {"2d0d6386bc627de7", "8e6bb4a0443e8e2b"},
		LibSci: {"28f2ce567d8ca6cf", "0a67328935a83188"}, SLATE: {"e0c1a8382361bd96", "fbcce50e932101d2"}}, nil},
	{517, 12, false, map[Algorithm][2]string{
		COnfLUX: {"7da8cea1956711d2", "612185f6333b726a"}, CANDMC: {"fe227ebbd6dc83e0", "e61c8abfb9d8747c"},
		LibSci: {"4fda62f5f88381d7", "b5a1e7a7e619799d"}, SLATE: {"229a3f60979fd745", "af77690739f17a1c"}}, nil},
	{512, 64, false, map[Algorithm][2]string{
		COnfLUX: {"ab26a5ab8517f1e3", "8f36cef1f1f8d5b7"}, CANDMC: {"c63e18e79a201018", "5175250c85e0ebb4"},
		LibSci: {"6a6f6312db01d3f5", "403ee739c5307971"}, SLATE: {"0d35467450e9f2a5", "24cdf0015376bca5"}}, nil},
	{1024, 256, true, map[Algorithm][2]string{
		COnfLUX: {"ba5b21ed3c34779f", "dbd3480b5a1a3d2f"}, CANDMC: {"59d061a177379997", "3559efb0cd98efb1"},
		LibSci: {"9beccddcb2abbe8f", "92800294d7e3d87c"}, SLATE: {"868cbdf3a1395a4b", "d7b95d053672ab94"}}, nil},
	{2048, 256, true, map[Algorithm][2]string{LibSci: {"", "ef1850e863b9f1fa"}}, &replay2DFaults},
}

// volumeJob is one replay of TestConformanceVolumeDigestsCholeskyAndSolve.
type volumeJob struct {
	name  string
	algo  Algorithm
	solve bool
}

var volumeJobs = []volumeJob{{"Cholesky", Cholesky, false}, {"COnfLUX+solve", COnfLUX, true}, {"LibSci+solve", LibSci, true}}

// jobVolumeDigests are TestConformanceVolumeDigestsCholeskyAndSolve's pins:
// the first four shapes of the LU table, per volumeJobs name.
var jobVolumeDigests = []struct {
	n, p    int
	long    bool
	digests map[string][2]string // flat, dragonfly-contended
}{
	{256, 8, false, map[string][2]string{
		"Cholesky": {"461208f1149766d3", "5caca3f1642119f7"}, "COnfLUX+solve": {"3819b8f8dab8e4f5", "c785ea1206afb78f"},
		"LibSci+solve": {"52a30cca7a5572b8", "b03b17ab782d15b8"}}},
	{517, 12, false, map[string][2]string{
		"Cholesky": {"07f03c01811604c1", "446750889b27d994"}, "COnfLUX+solve": {"e8a2a893ab8b8747", "7fc7df92ff044951"},
		"LibSci+solve": {"fb79f365f0c100ab", "064e5270dc6aa11d"}}},
	{512, 64, false, map[string][2]string{
		"Cholesky": {"51d20b5c1c4ecd6e", "ea769b6ca357e27a"}, "COnfLUX+solve": {"37aa51be883c4e1e", "9f93c0182e3959f4"},
		"LibSci+solve": {"609a4025507c7123", "95da6bcb194a887e"}}},
	{1024, 256, true, map[string][2]string{
		"Cholesky": {"df0adcdd8f362c3c", "50996b80e08f2f6d"}, "COnfLUX+solve": {"f833c72d4c0e1981", "76d0fe9511e5cb09"},
		"LibSci+solve": {"695f72124e0fbbaf", "e0d5b742aa6bf375"}}},
}

// TestConformanceVolumeDigests pins the volume replays of the four LU
// engines to fixed artifacts (ROADMAP 3a): the report of CommVolume(n) on p
// ranks must hash to the recorded value (luVolumeDigests) under the flat α-β
// machine and under the dragonfly-contended topology. A control-flow change
// in an engine — or in a runtime collective it calls — that adds, drops,
// resizes, relabels or reorders a single message on any rank's timeline
// fails here. Volume mode runs no kernel and no floating-point arithmetic
// outside the clock sums, so unlike the factor digests these carry no
// architecture or ISA gate.
func TestConformanceVolumeDigests(t *testing.T) {
	for _, tc := range luVolumeDigests {
		for _, algo := range conformanceLU {
			for i, preset := range digestPresets {
				want := tc.digests[algo][i]
				if want == "" {
					continue
				}
				name := fmt.Sprintf("%s/n=%d/p=%d/%s", algo, tc.n, tc.p, preset)
				if tc.faults != nil {
					name += "+faults"
				}
				t.Run(name, func(t *testing.T) {
					if tc.long && testing.Short() {
						t.Skip("P=256 digest skipped in -short mode")
					}
					t.Parallel()
					opts := []Option{WithRanks(tc.p), WithAlgorithm(algo)}
					if preset != "flat" {
						opts = append(opts, WithTopologyPreset(preset))
						if tc.faults != nil {
							opts = append(opts, WithFaults(*tc.faults))
						}
					}
					rep, err := mustNew(t, opts...).CommVolume(t.Context(), tc.n)
					if err != nil {
						t.Fatal(err)
					}
					if got := volumeDigest(rep); got != want {
						t.Fatalf("digest %s, recorded %s", got, want)
					}
				})
			}
		}
	}
}

// TestConformanceVolumeDigestsCholeskyAndSolve pins the replays
// TestConformanceVolumeDigests leaves out, under the same digest and the same
// two machines: the 2.5D Cholesky engine's CommVolume, and CommVolumeSolve —
// factorization plus the distributed triangular solve on one world — after
// COnfLUX and after LibSci. The shapes are the first four of the LU table,
// P=256 again behind -short.
func TestConformanceVolumeDigestsCholeskyAndSolve(t *testing.T) {
	for _, tc := range jobVolumeDigests {
		for _, j := range volumeJobs {
			for i, preset := range digestPresets {
				want := tc.digests[j.name][i]
				t.Run(fmt.Sprintf("%s/n=%d/p=%d/%s", j.name, tc.n, tc.p, preset), func(t *testing.T) {
					if tc.long && testing.Short() {
						t.Skip("P=256 digest skipped in -short mode")
					}
					t.Parallel()
					opts := []Option{WithRanks(tc.p), WithAlgorithm(j.algo)}
					if preset != "flat" {
						opts = append(opts, WithTopologyPreset(preset))
					}
					s := mustNew(t, opts...)
					volume := s.CommVolume
					if j.solve {
						volume = s.CommVolumeSolve
					}
					rep, err := volume(t.Context(), tc.n)
					if err != nil {
						t.Fatal(err)
					}
					if got := volumeDigest(rep); got != want {
						t.Fatalf("digest %s, recorded %s", got, want)
					}
				})
			}
		}
	}
}

// digestMachine builds the topology of digest preset i (nil for the flat
// machine) for a world of the given size; faults apply to the contended
// preset only, as in the digest tests.
func digestMachine(t *testing.T, i, world int, faults *FaultPlan) trace.Topology {
	t.Helper()
	if i == 0 {
		return nil
	}
	spec, err := TopologyPreset(digestPresets[i])
	if err != nil {
		t.Fatal(err)
	}
	var fp FaultPlan
	if faults != nil {
		fp = *faults
	}
	tp, err := topo.BuildFaulted(spec, DefaultMachine(), world, fp)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// requirePricedDigests records job once under digest machine rec, checks
// that live run against its pin (if one is recorded), and then prices the
// recording under the other machine, whose report must hash to that
// machine's pin.
func requirePricedDigests(t *testing.T, job engine.Job, digests [2]string, faults *FaultPlan, rec int) {
	t.Helper()
	w := smpi.NewWorldMachine(job.World, false, DefaultMachine())
	w.Trace.SetTopology(digestMachine(t, rec, job.World, faults))
	w.Trace.Record()
	rep, err := smpi.Exec(t.Context(), smpi.Config{World: w}, job.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := volumeDigest(rep); digests[rec] != "" && got != digests[rec] {
		t.Fatalf("recording run under %s: digest %s, recorded %s", digestPresets[rec], got, digests[rec])
	}
	other := 1 - rec
	priced, _ := w.Trace.Price(DefaultMachine(), digestMachine(t, other, job.World, faults))
	if got := volumeDigest(priced); got != digests[other] {
		t.Fatalf("recorded under %s, priced under %s: digest %s, recorded %s", digestPresets[rec], digestPresets[other], got, digests[other])
	}
}

// TestConformancePricedVolumeDigests is record once, price many against
// every volume pin: each replay of the two digest tables runs once, recording
// its schedule, under one of its two machines — the flat machine on even
// shapes, dragonfly-contended on odd ones — and the schedule priced under the
// other machine must hash to that machine's recorded digest. The faulted
// point, pinned only under its faulted dragonfly, is recorded on the flat
// machine. The P=256 cases run behind -short.
func TestConformancePricedVolumeDigests(t *testing.T) {
	for i, tc := range luVolumeDigests {
		for _, algo := range conformanceLU {
			digests, ok := tc.digests[algo]
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d/p=%d", algo, tc.n, tc.p), func(t *testing.T) {
				if tc.long && testing.Short() {
					t.Skip("P=256 digest skipped in -short mode")
				}
				t.Parallel()
				eng, err := engine.Lookup(algo)
				if err != nil {
					t.Fatal(err)
				}
				rec := i % 2
				if digests[1-rec] == "" {
					rec = 1 - rec
				}
				requirePricedDigests(t, engine.VolumeJob(eng, tc.n, engine.Config{Ranks: tc.p}), digests, tc.faults, rec)
			})
		}
	}
	for i, tc := range jobVolumeDigests {
		for _, j := range volumeJobs {
			t.Run(fmt.Sprintf("%s/n=%d/p=%d", j.name, tc.n, tc.p), func(t *testing.T) {
				if tc.long && testing.Short() {
					t.Skip("P=256 digest skipped in -short mode")
				}
				t.Parallel()
				eng, err := engine.Lookup(j.algo)
				if err != nil {
					t.Fatal(err)
				}
				job := engine.VolumeJob(eng, tc.n, engine.Config{Ranks: tc.p})
				if j.solve {
					job = engine.SolveJob(eng, tc.n, engine.Config{Ranks: tc.p}, tc.p, 1)
				}
				requirePricedDigests(t, job, tc.digests[j.name], nil, i%2)
			})
		}
	}
}

// requireSameReport fails unless got equals want in every field but the
// executor provenance (Executor, Workers).
func requireSameReport(t *testing.T, what string, got, want *VolumeReport) {
	t.Helper()
	g, w := *got, *want
	g.Executor, g.Workers, w.Executor, w.Workers = "", 0, "", 0
	if reflect.DeepEqual(g, w) {
		return
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"P", g.P, w.P}, {"Sent", g.Sent, w.Sent}, {"Recv", g.Recv, w.Recv}, {"Msgs", g.Msgs, w.Msgs},
		{"ByPhase", g.ByPhase, w.ByPhase}, {"PhaseMsgs", g.PhaseMsgs, w.PhaseMsgs}, {"Time", *g.Time, *w.Time},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s %+v, want %+v", what, f.name, f.got, f.want)
		}
	}
}

// TestConformanceMarkedVolumeReports pins that one factorize+solve replay
// answers the volume job: every rank marks its timeline where its
// factorization ends (engine.SolveJob), and when the solve runs on the
// factorization's ranks — as here, SolveRanks = P — the report over those
// marks is CommVolume's report. It covers every shape of the volume digest
// tables: the four LU engines at the four shapes, the faulted point and
// Cholesky. Each replay runs under both digest machines, recording its
// schedule, and its marked report must equal CommVolume's report on that
// machine in every field (volumes, per-phase volumes, every clock, busy and
// wait time, critical-rank and per-phase busy times) — live, and priced
// under the other machine. The P=256 cases run behind -short.
func TestConformanceMarkedVolumeReports(t *testing.T) {
	type point struct {
		algo   Algorithm
		n, p   int
		long   bool
		faults *FaultPlan
	}
	var points []point
	for _, tc := range luVolumeDigests {
		for _, algo := range conformanceLU {
			if _, ok := tc.digests[algo]; ok {
				points = append(points, point{algo, tc.n, tc.p, tc.long, tc.faults})
			}
		}
	}
	for _, tc := range jobVolumeDigests {
		points = append(points, point{Cholesky, tc.n, tc.p, tc.long, nil})
	}
	for _, pt := range points {
		name := fmt.Sprintf("%s/n=%d/p=%d", pt.algo, pt.n, pt.p)
		if pt.faults != nil {
			name += "+faults"
		}
		t.Run(name, func(t *testing.T) {
			if pt.long && testing.Short() {
				t.Skip("P=256 case skipped in -short mode")
			}
			t.Parallel()
			var want [2]*VolumeReport
			for i, preset := range digestPresets {
				opts := []Option{WithRanks(pt.p), WithAlgorithm(pt.algo)}
				if preset != "flat" {
					opts = append(opts, WithTopologyPreset(preset))
					if pt.faults != nil {
						opts = append(opts, WithFaults(*pt.faults))
					}
				}
				rep, err := mustNew(t, opts...).CommVolume(t.Context(), pt.n)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = rep
			}
			eng, err := engine.Lookup(pt.algo)
			if err != nil {
				t.Fatal(err)
			}
			job := engine.SolveJob(eng, pt.n, engine.Config{Ranks: pt.p}, pt.p, 1)
			for rec := range digestPresets {
				w := smpi.NewWorldMachine(job.World, false, DefaultMachine())
				w.Trace.Record()
				w.Trace.EnableMarks()
				w.Trace.SetTopology(digestMachine(t, rec, job.World, pt.faults))
				if _, err := smpi.Exec(t.Context(), smpi.Config{World: w}, job.Body); err != nil {
					t.Fatal(err)
				}
				requireSameReport(t, "marked under "+digestPresets[rec], w.Trace.MarkedReport(), want[rec])
				other := 1 - rec
				_, priced := w.Trace.Price(DefaultMachine(), digestMachine(t, other, job.World, pt.faults))
				requireSameReport(t, fmt.Sprintf("marked under %s, priced under %s", digestPresets[rec], digestPresets[other]),
					priced, want[other])
			}
		})
	}
}

// TestConformanceSessionReuse pins the amortization contract the Session
// exists for: one session runs many jobs (different dimensions, numeric and
// volume mode) and its accumulated stats reflect every completed run.
func TestConformanceSessionReuse(t *testing.T) {
	s := conformanceSession(t, COnfLUX, 4)
	runs := 0
	for _, n := range conformanceDims {
		a := mat.Random(n, n, conformanceSeed(n, 4))
		if _, err := s.Factorize(t.Context(), a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		runs++
		if _, err := s.CommVolume(t.Context(), n); err != nil {
			t.Fatalf("volume n=%d: %v", n, err)
		}
		runs++
	}
	st := s.Stats()
	if st.Runs != runs || st.Bytes <= 0 || st.SimTime <= 0 {
		t.Fatalf("stats did not accumulate: %+v after %d runs", st, runs)
	}
}

// TestConformanceSequentialBound is the paper's sequential case (P = 1) as
// one chain: the public LowerBoundLU(n, 1, M) is xpart's sequential bound
// 2N³/(3√M) + N(N−1)/2, full N² term included, and no schedule beats it —
// neither the greedy red-blue pebbling of the LU CDAG nor the blocked
// out-of-core LU with an M-element cache.
func TestConformanceSequentialBound(t *testing.T) {
	for _, pt := range []struct{ n, m int }{{4, 6}, {5, 8}, {6, 8}, {6, 12}, {7, 10}, {8, 12}, {8, 20}} {
		lower := LowerBoundLU(pt.n, 1, float64(pt.m))
		if want := xpart.LUSequentialLowerBound(pt.n, float64(pt.m)); lower != want {
			t.Fatalf("n=%d M=%d: LowerBoundLU = %v, xpart's sequential bound %v", pt.n, pt.m, lower, want)
		}
		_, io, err := pebble.Greedy(daap.BuildLUCDAG(pt.n), pt.m)
		if err != nil {
			t.Fatalf("n=%d M=%d: %v", pt.n, pt.m, err)
		}
		if float64(io) < lower {
			t.Errorf("n=%d M=%d: greedy pebbling I/O %d below the bound %.1f", pt.n, pt.m, io, lower)
		}
	}
	for _, pt := range []struct{ n, m int }{{32, 3 * 16 * 16}, {48, 3 * 8 * 8}, {40, 4 * 100}, {96, 3 * 16 * 16}} {
		lower := LowerBoundLU(pt.n, 1, float64(pt.m))
		if want := xpart.LUSequentialLowerBound(pt.n, float64(pt.m)); lower != want {
			t.Fatalf("n=%d M=%d: LowerBoundLU = %v, xpart's sequential bound %v", pt.n, pt.m, lower, want)
		}
		stats, err := oocore.FactorizeOOC(mat.RandomDiagDominant(pt.n, uint64(pt.n)), pt.m)
		if err != nil {
			t.Fatalf("n=%d M=%d: %v", pt.n, pt.m, err)
		}
		if float64(stats.Total()) < lower {
			t.Errorf("n=%d M=%d: out-of-core I/O %d below the bound %.1f", pt.n, pt.m, stats.Total(), lower)
		}
	}
}
