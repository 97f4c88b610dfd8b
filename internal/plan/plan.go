// Package plan is the serving layer behind cmd/confluxd: it canonicalizes
// planner requests into deterministic cache keys, runs the exact
// simulations through the public Session API behind a sharded
// result cache with singleflight coalescing, and sheds load when the
// simulation pool is saturated.
//
// The correctness story rests on PR 2/PR 6's determinism pins: every
// simulation in this repo is a pure function of the canonical parameter
// tuple (engine, N, P, M, nb, machine α/β, solve geometry) — reports are
// byte-identical across reps, executors, and event-window widths. Results
// are therefore infinitely cacheable, and the one obligation this package
// owns is getting the key boundary exactly right: every
// result-determining field of conflux.Config must be in the key (a missed
// field aliases distinct results), and the fields pinned to change nothing
// (Executor, Workers, Timeout) must stay out (including them only
// fragments the cache). TestKeyCoversConfig enforces the classification by
// reflecting over conflux.Config, so a new Session option cannot land
// without being classified here first. See DESIGN.md §13.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/topo"
)

// Job selects which simulation a request replays.
type Job string

const (
	// JobVolume replays the factorization communication schedule
	// (Session.CommVolume).
	JobVolume Job = "volume"
	// JobSolve replays the end-to-end factorize-plus-solve schedule
	// (Session.CommVolumeSolve).
	JobSolve Job = "solve"
)

// Valid reports whether j names a job ("" counts as JobVolume).
func (j Job) Valid() bool { return j == "" || j == JobVolume || j == JobSolve }

// KeyFields and ExcludedFields classify every leaf field of
// conflux.Config for cache-key purposes. TestKeyCoversConfig asserts the
// two lists together cover the struct exactly, so the lists are the
// authoritative record of why each field is in or out:
//
//   - key fields determine simulation outputs (the canonical tuple);
//   - excluded fields are pinned by the parity suites to change nothing
//     observable (Executor: DESIGN.md §11; Workers: §12) or bound only
//     wall-clock execution (Timeout), so keying on them would fragment
//     the cache into byte-identical copies.
var (
	KeyFields = []string{
		"Ranks", "Memory", "Algorithm", "Machine.Alpha", "Machine.Beta",
		"SolveRanks", "RHS", "RefineSweeps", "BlockSize",
		// The topology spec changes every simulated clock (two topologies
		// must never share a cache entry), but reports stay bit-identical
		// across executors and widths under any topology — so the whole
		// nested spec is key-relevant, encoded preset name + exact-hex
		// floats like the machine β. Faults is the fault plan's canonical
		// string (already exact-hex), keyed verbatim.
		"Topology.Preset", "Topology.RanksPerNode", "Topology.NodesPerGroup",
		"Topology.Radix", "Topology.Intra.Alpha", "Topology.Intra.Beta",
		"Topology.Inter.Alpha", "Topology.Inter.Beta",
		"Topology.Global.Alpha", "Topology.Global.Beta",
		"Topology.Contention", "Faults",
	}
	ExcludedFields = []string{"Timeout", "Executor", "Workers"}
)

// Request is one canonical planner evaluation: a single (engine, problem,
// machine, solve-geometry) point. It mirrors the key-relevant fields of
// conflux.Config plus the problem size N and the job kind.
type Request struct {
	Algorithm costmodel.Algorithm `json:"algorithm"`
	N         int                 `json:"n"`
	P         int                 `json:"p"`
	// Memory is the per-rank fast memory in elements. Canonicalize
	// resolves the paper default (<= 0) to its explicit per-(N, P) value,
	// so "default" and "explicitly the default value" share a key.
	Memory float64 `json:"memory"`
	// NB is the user-specified blocking parameter; 0 keeps the engine
	// default. 0 is canonical as-is: the default is deterministic given
	// the rest of the tuple, so 0 and the spelled-out default value can
	// at worst miss each other (a false miss, never a false hit).
	NB           int     `json:"nb"`
	Alpha        float64 `json:"alpha"`
	Beta         float64 `json:"beta"`
	SolveRanks   int     `json:"solve_ranks"`
	RHS          int     `json:"rhs"`
	RefineSweeps int     `json:"refine_sweeps"`
	// Topology is the network-topology spec (zero = plain machine).
	// Canonicalize does not deep-validate it — an unbuildable spec fails
	// at Session construction with the public error, while the key stays
	// a pure encoding (it can only ever miss, never alias).
	Topology conflux.Topology `json:"topology,omitzero"`
	// Faults is the canonical fault-plan encoding ("" = none).
	Faults string `json:"faults,omitempty"`
	Job    Job    `json:"job"`
}

// Canonicalize validates req and resolves every defaultable field to its
// explicit value, so that all requests naming the same simulation produce
// the same Key.
func (r Request) Canonicalize() (Request, error) {
	if r.Algorithm == "" {
		return r, fmt.Errorf("plan: request has no algorithm")
	}
	if r.N <= 0 || r.P <= 0 {
		return r, fmt.Errorf("plan: request requires n > 0 and p > 0, got n=%d p=%d", r.N, r.P)
	}
	if r.Memory < 0 || r.NB < 0 || r.SolveRanks < 0 || r.RHS < 0 || r.RefineSweeps < 0 {
		return r, fmt.Errorf("plan: negative parameter in request %+v", r)
	}
	if !r.Job.Valid() {
		return r, fmt.Errorf("plan: unknown job %q (want %q or %q)", r.Job, JobVolume, JobSolve)
	}
	if r.Memory == 0 {
		r.Memory = costmodel.MaxMemoryParams(r.N, r.P).M
	}
	if r.SolveRanks == 0 {
		r.SolveRanks = r.P
	}
	if r.RHS == 0 {
		r.RHS = 1
	}
	if r.Job == "" {
		r.Job = JobVolume
	}
	return r, nil
}

// Key returns the deterministic cache key of the canonicalized request.
// Floats are rendered in exact hexadecimal ('x'), so two machines differing
// in the last ulp of β still miss each other — the cache can only ever be
// exactly right or conservatively cold, never wrong.
func (r Request) Key() string {
	var b strings.Builder
	b.Grow(128)
	b.WriteString("plan/v1")
	kv := func(k, v string) {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	kv("job", string(r.Job))
	kv("algo", string(r.Algorithm))
	kv("n", strconv.Itoa(r.N))
	kv("p", strconv.Itoa(r.P))
	kv("m", strconv.FormatFloat(r.Memory, 'x', -1, 64))
	kv("nb", strconv.Itoa(r.NB))
	kv("alpha", strconv.FormatFloat(r.Alpha, 'x', -1, 64))
	kv("beta", strconv.FormatFloat(r.Beta, 'x', -1, 64))
	kv("sr", strconv.Itoa(r.SolveRanks))
	kv("rhs", strconv.Itoa(r.RHS))
	kv("ref", strconv.Itoa(r.RefineSweeps))
	// Topology + faults: preset name and shape as integers, per-tier
	// machines in exact hex like α/β above. The zero spec renders a fixed
	// short tail, so pre-topology and zero-topology requests share keys
	// only with each other — never with a configured topology.
	kv("topo", r.Topology.Preset)
	kv("rpn", strconv.Itoa(r.Topology.RanksPerNode))
	kv("npg", strconv.Itoa(r.Topology.NodesPerGroup))
	kv("radix", strconv.Itoa(r.Topology.Radix))
	kv("tia", strconv.FormatFloat(r.Topology.Intra.Alpha, 'x', -1, 64))
	kv("tib", strconv.FormatFloat(r.Topology.Intra.Beta, 'x', -1, 64))
	kv("tea", strconv.FormatFloat(r.Topology.Inter.Alpha, 'x', -1, 64))
	kv("teb", strconv.FormatFloat(r.Topology.Inter.Beta, 'x', -1, 64))
	kv("tga", strconv.FormatFloat(r.Topology.Global.Alpha, 'x', -1, 64))
	kv("tgb", strconv.FormatFloat(r.Topology.Global.Beta, 'x', -1, 64))
	kv("cont", strconv.Itoa(r.Topology.Contention))
	kv("faults", r.Faults)
	return b.String()
}

// FromConfig derives the canonical request for running job at dimension n
// on a session with the given resolved configuration. It consumes exactly
// the KeyFields of cfg — the ExcludedFields are dropped here, which is the
// code-level twin of the classification TestKeyCoversConfig enforces.
func FromConfig(cfg conflux.Config, n int, job Job) (Request, error) {
	return Request{
		Algorithm:    cfg.Algorithm,
		N:            n,
		P:            cfg.Ranks,
		Memory:       cfg.Memory,
		NB:           cfg.BlockSize,
		Alpha:        cfg.Machine.Alpha,
		Beta:         cfg.Machine.Beta,
		SolveRanks:   cfg.SolveRanks,
		RHS:          cfg.RHS,
		RefineSweeps: cfg.RefineSweeps,
		Topology:     cfg.Topology,
		Faults:       cfg.Faults,
		Job:          job,
	}.Canonicalize()
}

// Session constructs the one-shot Session a canonicalized request runs on —
// the same public constructor path interactive callers use, so cached
// results are byte-identical to an uncached conflux run by construction.
func (r Request) Session() (*conflux.Session, error) {
	opts := []conflux.Option{
		conflux.WithRanks(r.P),
		conflux.WithMemory(r.Memory),
		conflux.WithAlgorithm(r.Algorithm),
		conflux.WithMachine(conflux.Machine{Alpha: r.Alpha, Beta: r.Beta}),
		conflux.WithSolveRanks(r.SolveRanks),
		conflux.WithRHS(r.RHS),
		conflux.WithRefineSweeps(r.RefineSweeps),
	}
	if r.NB > 0 {
		opts = append(opts, conflux.WithBlockSize(r.NB))
	}
	if !r.Topology.IsZero() {
		opts = append(opts, conflux.WithTopology(r.Topology))
	}
	if r.Faults != "" {
		fp, err := topo.ParseFaultPlan(r.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, conflux.WithFaults(fp))
	}
	return conflux.New(opts...)
}
