package conflux

import (
	"fmt"

	"repro/internal/costmodel"
	engreg "repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// registered adapts Run under one row policy to the engine registry: the
// public API, the bench harness, and the CLI reach COnfLUX, CANDMC and
// Cholesky only through these registrations. Cholesky returns L, A = L·Lᵀ,
// with a nil perm, and the public API reaches it through FactorizeSPD.
type registered struct{ rows RowPolicy }

var registeredNames = [...]costmodel.Algorithm{Mask: costmodel.COnfLUX, Swap: costmodel.CANDMC, Symmetric: costmodel.Cholesky}

func (r registered) options(n int, cfg engreg.Config) Options {
	switch r.rows {
	case Swap:
		return CANDMCOptions(n, cfg.Ranks, cfg.MemoryFor(n))
	case Symmetric:
		return CholeskyOptions(n, cfg.Ranks, cfg.MemoryFor(n))
	}
	return DefaultOptions(n, cfg.Ranks, cfg.MemoryFor(n))
}

func (r registered) Name() costmodel.Algorithm { return registeredNames[r.rows] }

func (r registered) Run(c *smpi.Comm, in *mat.Matrix, n int, cfg engreg.Config) (*mat.Matrix, []int, error) {
	res, err := Run(c, in, r.options(n, cfg))
	if err != nil {
		return nil, nil, err
	}
	return res.LU, res.Perm, nil
}

func (r registered) GridDesc(n int, cfg engreg.Config) string {
	g := r.options(n, cfg).Grid
	desc := fmt.Sprintf("%dx%dx%d", g.Pr, g.Pc, g.Layers)
	if r.rows == Mask { // CANDMC's greedy grid never disables a rank; Cholesky's grid string leaves the count out
		desc += fmt.Sprintf(" (%d used)", g.Used())
	}
	return desc
}

func init() {
	for _, rows := range []RowPolicy{Mask, Swap, Symmetric} {
		engreg.Register(registered{rows})
	}
}
