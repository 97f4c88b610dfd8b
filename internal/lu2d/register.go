package lu2d

import (
	"fmt"

	"repro/internal/costmodel"
	engreg "repro/internal/engine"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// DefaultLibSciNB is the "user-specified" ScaLAPACK block size used when a
// run config does not supply one (Table 2 lists LibSci's block size as a
// user parameter).
const DefaultLibSciNB = 32

// lu2dEngine adapts the 2D engine to the registry under both of its
// vendor personae: LibSci (user block size, tree broadcasts) and SLATE
// (block size 16, ring broadcasts).
type lu2dEngine struct {
	name costmodel.Algorithm
}

func (e lu2dEngine) Name() costmodel.Algorithm { return e.name }

func (e lu2dEngine) options(n int, cfg engreg.Config) Options {
	if e.name == costmodel.SLATE {
		return SLATEOptions(n, cfg.Ranks)
	}
	nb := cfg.NB
	if nb <= 0 {
		nb = DefaultLibSciNB
	}
	return LibSciOptions(n, cfg.Ranks, nb)
}

func (e lu2dEngine) Run(c *smpi.Comm, in *mat.Matrix, n int, cfg engreg.Config) (*mat.Matrix, []int, error) {
	res, err := Run(c, in, e.options(n, cfg))
	if err != nil || res.Ipiv == nil { // only rank 0 has pivots to return
		return nil, nil, err
	}
	return res.LU, lapack.PermFromIpiv(res.Ipiv, n), nil
}

func (e lu2dEngine) GridDesc(n int, cfg engreg.Config) string {
	g := e.options(n, cfg).Grid
	return fmt.Sprintf("%dx%d", g.Pr, g.Pc)
}

func init() {
	engreg.Register(lu2dEngine{name: costmodel.LibSci})
	engreg.Register(lu2dEngine{name: costmodel.SLATE})
}
