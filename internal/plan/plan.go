// Package plan is the serving layer behind cmd/confluxd: it canonicalizes
// planner requests into deterministic cache keys, runs the exact
// simulations — the job bodies the public Session runs — behind a
// result cache with singleflight coalescing, answers the volume and solve
// jobs from one factorize-plus-solve run, prices a recorded schedule under
// the other machines it has served, and sheds load when the simulation pool
// is saturated.
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
	"errors"
	"fmt"
	"strconv"

	conflux "repro"
	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/topo"
	"repro/internal/trace"
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
	// Canonicalize refuses a spec that does not validate, as
	// conflux.WithTopology does; the key encodes it leaf by leaf.
	Topology conflux.Topology `json:"topology,omitzero"`
	// Faults is the canonical fault-plan encoding ("" = none).
	Faults string `json:"faults,omitempty"`
	Job    Job    `json:"job"`
}

// Canonicalize validates req and resolves every defaultable field to its
// explicit value, so that all requests naming the same simulation produce
// the same Key. It refuses what conflux.New refuses, by the same rules and
// with an error naming the field, so no request it admits fails inside its
// simulation for a bad parameter.
func (r Request) Canonicalize() (Request, error) {
	if _, err := engine.Lookup(r.Algorithm); err != nil {
		return r, fmt.Errorf("plan: algorithm: %w", err)
	}
	if r.N <= 0 || r.P <= 0 {
		return r, fmt.Errorf("plan: n and p must be positive, got n=%d p=%d", r.N, r.P)
	}
	if r.NB < 0 || r.SolveRanks < 0 || r.RHS < 0 || r.RefineSweeps < 0 {
		return r, fmt.Errorf("plan: nb, solve_ranks, rhs and refine_sweeps must be non-negative, got %d, %d, %d and %d",
			r.NB, r.SolveRanks, r.RHS, r.RefineSweeps)
	}
	if err := errors.Join(trace.CheckNonNegative("memory", r.Memory),
		trace.CheckNonNegative("alpha", r.Alpha), trace.CheckNonNegative("beta", r.Beta)); err != nil {
		return r, fmt.Errorf("plan: %w", err)
	}
	if err := r.Topology.Validate(); err != nil {
		return r, fmt.Errorf("plan: topology: %w", err)
	}
	if _, err := topo.ParseFaultPlan(r.Faults); err != nil {
		return r, fmt.Errorf("plan: faults: %w", err)
	}
	switch r.Job {
	case "":
		r.Job = JobVolume
	case JobVolume, JobSolve:
	default:
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
	return r, nil
}

// Key returns the deterministic cache key of the canonicalized request.
// Floats are rendered in exact hexadecimal ('x'), so two machines differing
// in the last ulp of β still miss each other — the cache can only ever be
// exactly right or conservatively cold, never wrong. The key is appended
// into one stack buffer and copied out once, because every warm /v1/plan
// answer builds one per candidate.
func (r Request) Key() string {
	var buf [512]byte
	b := append(buf[:0], "plan/v1"...)
	b = appendStr(b, "|job=", string(r.Job))
	b = appendStr(b, "|algo=", string(r.Algorithm))
	b = appendInt(b, "|n=", r.N)
	b = appendInt(b, "|p=", r.P)
	b = appendHex(b, "|m=", r.Memory)
	b = appendInt(b, "|nb=", r.NB)
	b = appendHex(b, "|alpha=", r.Alpha)
	b = appendHex(b, "|beta=", r.Beta)
	b = appendInt(b, "|sr=", r.SolveRanks)
	b = appendInt(b, "|rhs=", r.RHS)
	b = appendInt(b, "|ref=", r.RefineSweeps)
	// Topology + faults: preset name and shape as integers, per-tier
	// machines in exact hex like α/β above. The zero spec renders a fixed
	// short tail, so pre-topology and zero-topology requests share keys
	// only with each other — never with a configured topology.
	t := &r.Topology
	b = appendStr(b, "|topo=", t.Preset)
	b = appendInt(b, "|rpn=", t.RanksPerNode)
	b = appendInt(b, "|npg=", t.NodesPerGroup)
	b = appendInt(b, "|radix=", t.Radix)
	b = appendHex(b, "|tia=", t.Intra.Alpha)
	b = appendHex(b, "|tib=", t.Intra.Beta)
	b = appendHex(b, "|tea=", t.Inter.Alpha)
	b = appendHex(b, "|teb=", t.Inter.Beta)
	b = appendHex(b, "|tga=", t.Global.Alpha)
	b = appendHex(b, "|tgb=", t.Global.Beta)
	b = appendInt(b, "|cont=", t.Contention)
	b = appendStr(b, "|faults=", r.Faults)
	return string(b)
}

// appendStr appends the key field "|name=" and v.
func appendStr(b []byte, field, v string) []byte {
	return append(append(b, field...), v...)
}

// appendInt appends the key field "|name=" and v in decimal.
func appendInt(b []byte, field string, v int) []byte {
	return strconv.AppendInt(append(b, field...), int64(v), 10)
}

// appendHex appends the key field "|name=" and v in exact hexadecimal.
func appendHex(b []byte, field string, v float64) []byte {
	return strconv.AppendFloat(append(b, field...), v, 'x', -1, 64)
}

// pairs reports whether one live run answers r under both jobs: the
// factorize-plus-solve replay marks each rank's timeline where its
// factorization ends, and those marks are the volume job's report exactly
// when both jobs run on one world — the solve ranks fit inside the P
// factorization ranks.
func (r Request) pairs() bool { return r.SolveRanks <= r.P }

// other returns r asking for the other job.
func (r Request) other() Request {
	if r.Job == JobSolve {
		r.Job = JobVolume
	} else {
		r.Job = JobSolve
	}
	return r
}

// Machine is everything a request's answer depends on beyond its schedule:
// the α-β machine, the topology spec and the fault plan. Two requests that
// differ only here replay the same schedule, so one recorded run answers
// both (DESIGN.md §16).
type Machine struct {
	Alpha, Beta float64
	Topology    conflux.Topology
	Faults      string
}

// Machine returns the machine r runs on.
func (r Request) Machine() Machine {
	return Machine{Alpha: r.Alpha, Beta: r.Beta, Topology: r.Topology, Faults: r.Faults}
}

// On returns r moved onto machine m; the schedule fields stay r's.
func (r Request) On(m Machine) Request {
	r.Alpha, r.Beta, r.Topology, r.Faults = m.Alpha, m.Beta, m.Topology, m.Faults
	return r
}

// build resolves m into the topology a world of the given size prices its
// deliveries with (nil = the flat α-β machine). It is where an invalid
// topology spec or fault plan fails.
func (m Machine) build(world int) (trace.Topology, error) {
	fp, err := topo.ParseFaultPlan(m.Faults)
	if err != nil {
		return nil, err
	}
	return topo.BuildFaulted(m.Topology, m.alphaBeta(), world, fp)
}

func (m Machine) alphaBeta() trace.Machine { return trace.Machine{Alpha: m.Alpha, Beta: m.Beta} }
