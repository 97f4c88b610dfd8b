// Package engine is the fixed table of factorization engines the public API,
// the planner and the bench harness dispatch through: COnfLUX, CANDMC and
// Cholesky, which are internal/conflux's step loop under its three row
// policies, and LibSci and SLATE, which are internal/lu2d's 2D engine under
// its two broadcast personae.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/conflux"
	"repro/internal/costmodel"
	"repro/internal/lapack"
	"repro/internal/lu2d"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// ErrUnknown is wrapped by Lookup for algorithm names with no engine in the
// table. The public API re-surfaces it as conflux.ErrUnknownAlgorithm.
var ErrUnknown = errors.New("no registered engine")

// DefaultLibSciNB is the "user-specified" ScaLAPACK block size used when a
// run config does not supply one (Table 2 lists LibSci's block size as a
// user parameter).
const DefaultLibSciNB = 32

// Config carries the per-run parameters an engine derives its internal
// options (grid shape, replication, blocking) from.
type Config struct {
	// Ranks is the simulated world size P the engine runs on.
	Ranks int
	// Memory is the per-rank fast memory in elements; <= 0 selects the
	// paper's maximum-replication setting M = N²/P^(2/3).
	Memory float64
	// NB is the block size for engines with a user-specified blocking
	// parameter (LibSci); 0 selects DefaultLibSciNB.
	NB int
}

// MemoryFor resolves the effective per-rank memory for an n×n problem.
func (cfg Config) MemoryFor(n int) float64 {
	if cfg.Memory > 0 {
		return cfg.Memory
	}
	return costmodel.MaxMemoryParams(n, cfg.Ranks).M
}

// Engine is one factorization implementation. Run executes the engine's
// schedule on communicator c for an n×n input; in is consulted at world rank
// 0 only and is nil in volume mode. World rank 0 returns the combined factors
// (a phantom in volume mode) and the pivot permutation perm with
// in[perm,:] = L·U; every other rank returns nil for both, so only the rank
// that returns an N-length array keeps one. Engines without a pivot
// permutation (Cholesky) return a nil perm. GridDesc describes the processor
// grid Run would choose for the same n and cfg.
type Engine interface {
	Name() costmodel.Algorithm
	Run(c *smpi.Comm, in *mat.Matrix, n int, cfg Config) (*mat.Matrix, []int, error)
	GridDesc(n int, cfg Config) string
}

// table holds every engine in name order, the order Names returns.
var table = [...]Engine{
	stepEngine{costmodel.CANDMC, conflux.Swap},
	stepEngine{costmodel.COnfLUX, conflux.Mask},
	stepEngine{costmodel.Cholesky, conflux.Symmetric},
	lu2dEngine{costmodel.LibSci},
	lu2dEngine{costmodel.SLATE},
}

// Lookup returns the engine named name, or an error wrapping ErrUnknown
// that lists the table.
func Lookup(name costmodel.Algorithm) (Engine, error) {
	for _, e := range table {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w for algorithm %q (registered: %v)", ErrUnknown, name, Names())
}

// Names returns the engines' algorithm names in sorted order.
func Names() []costmodel.Algorithm {
	out := make([]costmodel.Algorithm, len(table))
	for i, e := range table {
		out[i] = e.Name()
	}
	return out
}

// stepEngine is conflux.Run under one row policy. Cholesky returns L,
// A = L·Lᵀ, with a nil perm, and the public API reaches it through
// FactorizeSPD.
type stepEngine struct {
	name costmodel.Algorithm
	rows conflux.RowPolicy
}

func (e stepEngine) Name() costmodel.Algorithm { return e.name }

func (e stepEngine) options(n int, cfg Config) conflux.Options {
	switch e.rows {
	case conflux.Swap:
		return conflux.CANDMCOptions(n, cfg.Ranks, cfg.MemoryFor(n))
	case conflux.Symmetric:
		return conflux.CholeskyOptions(n, cfg.Ranks, cfg.MemoryFor(n))
	}
	return conflux.DefaultOptions(n, cfg.Ranks, cfg.MemoryFor(n))
}

func (e stepEngine) Run(c *smpi.Comm, in *mat.Matrix, n int, cfg Config) (*mat.Matrix, []int, error) {
	res, err := conflux.Run(c, in, e.options(n, cfg))
	if err != nil {
		return nil, nil, err
	}
	return res.LU, res.Perm, nil
}

func (e stepEngine) GridDesc(n int, cfg Config) string {
	g := e.options(n, cfg).Grid
	desc := fmt.Sprintf("%dx%dx%d", g.Pr, g.Pc, g.Layers)
	if e.rows == conflux.Mask { // CANDMC's greedy grid never disables a rank; Cholesky's grid string leaves the count out
		desc += fmt.Sprintf(" (%d used)", g.Used())
	}
	return desc
}

// lu2dEngine is lu2d.Run under one vendor persona: LibSci (user block size,
// tree broadcasts) or SLATE (block size 16, ring broadcasts).
type lu2dEngine struct {
	name costmodel.Algorithm
}

func (e lu2dEngine) Name() costmodel.Algorithm { return e.name }

func (e lu2dEngine) options(n int, cfg Config) lu2d.Options {
	if e.name == costmodel.SLATE {
		return lu2d.SLATEOptions(n, cfg.Ranks)
	}
	nb := cfg.NB
	if nb <= 0 {
		nb = DefaultLibSciNB
	}
	return lu2d.LibSciOptions(n, cfg.Ranks, nb)
}

func (e lu2dEngine) Run(c *smpi.Comm, in *mat.Matrix, n int, cfg Config) (*mat.Matrix, []int, error) {
	res, err := lu2d.Run(c, in, e.options(n, cfg))
	if err != nil || res.Ipiv == nil { // only rank 0 has pivots to return
		return nil, nil, err
	}
	return res.LU, lapack.PermFromIpiv(res.Ipiv, n), nil
}

func (e lu2dEngine) GridDesc(n int, cfg Config) string {
	g := e.options(n, cfg).Grid
	return fmt.Sprintf("%dx%d", g.Pr, g.Pc)
}
