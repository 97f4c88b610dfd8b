package grid

import "math"

// CostFunc models the communication cost of running on a candidate grid.
// It receives the grid and must return cost in elements per rank (lower is
// better). Implementations typically wrap internal/costmodel.
type CostFunc func(g Grid) float64

// Optimize25D implements the paper's Processor Grid Optimization (§8): it
// searches pr×pc×c grids embedded in a world of p ranks, allowing up to
// `wasteFrac` of the ranks to be disabled, and returns the grid minimizing
// cost. Ties prefer more active ranks, then squarer layers, then fewer
// layers.
//
// maxLayers bounds the replication factor c (the paper: c = PM/N² ≤ P^{1/3}).
func Optimize25D(p int, maxLayers int, wasteFrac float64, cost CostFunc) Grid {
	if p <= 0 {
		panic("grid: Optimize25D needs p > 0")
	}
	if maxLayers < 1 {
		maxLayers = 1
	}
	minUsed := int(math.Ceil(float64(p) * (1 - wasteFrac)))
	if minUsed < 1 {
		minUsed = 1
	}
	best := Grid{Pr: 1, Pc: 1, Layers: 1, Total: p}
	bestCost := math.Inf(1)
	for c := 1; c <= maxLayers && c <= p; c++ {
		p2 := p / c // ranks available per layer
		for pr := 1; pr*pr <= p2; pr++ {
			pc := p2 / pr
			// Consider both pr×pc and (squarer) pr'=pc truncations via the
			// symmetric candidate below; evaluate pr≤pc form.
			for _, cand := range []Grid{
				{Pr: pr, Pc: pc, Layers: c, Total: p},
				{Pr: pr, Pc: pr, Layers: c, Total: p}, // square subgrid, wastes more
			} {
				if !cand.Valid() || cand.Used() < minUsed {
					continue
				}
				cc := cost(cand)
				if better(cc, cand, bestCost, best) {
					bestCost, best = cc, cand
				}
			}
		}
	}
	return best
}

func better(c float64, g Grid, bestC float64, best Grid) bool {
	const eps = 1e-12
	if c < bestC*(1-eps) {
		return true
	}
	if c > bestC*(1+eps) {
		return false
	}
	if g.Used() != best.Used() {
		return g.Used() > best.Used()
	}
	// Squarer layer wins.
	da := abs(g.Pc - g.Pr)
	db := abs(best.Pc - best.Pr)
	if da != db {
		return da < db
	}
	return g.Layers < best.Layers
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// MaxReplication returns the paper's replication bound c = P·M/N², clamped
// to [1, P^{1/3}] and to at most N layers: the 2.5D engines block by v ≥ c
// and v ≤ N, so an N below the depth has no blocking parameter.
func MaxReplication(p int, m float64, n int) int {
	c := int(float64(p) * m / float64(n) / float64(n))
	return max(1, min(c, int(math.Cbrt(float64(p))), n))
}
