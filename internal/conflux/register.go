package conflux

import (
	"fmt"

	"repro/internal/costmodel"
	engreg "repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// registered adapts Run under one row policy to the engine registry: the
// public API, the bench harness, and the CLI reach COnfLUX (masking) and
// CANDMC (swapping) only through these two registrations.
type registered struct{ swap bool }

func (r registered) options(n int, cfg engreg.Config) Options {
	if r.swap {
		return CANDMCOptions(n, cfg.Ranks, cfg.MemoryFor(n))
	}
	return DefaultOptions(n, cfg.Ranks, cfg.MemoryFor(n))
}

func (r registered) Name() costmodel.Algorithm {
	if r.swap {
		return costmodel.CANDMC
	}
	return costmodel.COnfLUX
}

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
	if !r.swap { // CANDMC's greedy grid never disables a rank
		desc += fmt.Sprintf(" (%d used)", g.Used())
	}
	return desc
}

func init() {
	engreg.Register(registered{})
	engreg.Register(registered{swap: true})
}
