package dist

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// Tag is the one point-to-point tag Scatter and Gather use on the
// communicator they are handed; a caller's own traffic on that communicator
// must use tags above it.
const Tag = 0

// checkGrid guards against a caller passing a grid other than the one the
// store's ownership map is built on — the mismatch would silently route
// tiles to the wrong ranks and hang the collective.
func checkGrid(g grid.Grid, s *Store) {
	if g != s.bc.G {
		panic(fmt.Sprintf("dist: collective grid %+v != store grid %+v", g, s.bc.G))
	}
}

// tileLens returns the element count of every tile grid position (row, col)
// owns, in (ti, tj) ascending order: the part list of that position's batch,
// one metered message per tile.
func tileLens(bc grid.BlockCyclic, row, col int) []int {
	tis, tjs := bc.LocalTileRows(row, 0), bc.LocalTileCols(col, 0)
	lens := make([]int, 0, len(tis)*len(tjs))
	for _, ti := range tis {
		for _, tj := range tjs {
			h, w := bc.TileDims(ti, tj)
			lens = append(lens, h*w)
		}
	}
	return lens
}

// copyTiles moves every tile of grid position (row, col) between the full
// n×n matrix and panel, that position's local matrix in Store.panel's
// row-major layout — which is also the wire layout of its batch, so an owner
// packs and unpacks with one copy and only the root pays the strided walk.
func copyTiles(bc grid.BlockCyclic, row, col int, full *mat.Matrix, panel []float64, toPanel bool) {
	tjs := bc.LocalTileCols(col, 0)
	off := 0
	for _, ti := range bc.LocalTileRows(row, 0) {
		h, _ := bc.TileDims(ti, 0)
		for r := ti * bc.V; r < ti*bc.V+h; r++ {
			global := full.Row(r)
			for _, tj := range tjs {
				_, w := bc.TileDims(0, tj)
				if seg := global[tj*bc.V : tj*bc.V+w]; toPanel {
					copy(panel[off:off+w], seg)
				} else {
					copy(seg, panel[off:off+w])
				}
				off += w
			}
		}
	}
}

// Scatter distributes root's full matrix a into the block-cyclic stores of
// the participating ranks: tile (ti, tj) goes to the rank at grid position
// (OwnerRow(ti), OwnerCol(tj)) on the STORE's layer. It is a collective over
// the root plus every rank of that layer; c must be the world communicator
// (communicator ranks = grid ranks). a is consulted at root only and may be
// nil or phantom — the sends then carry counts without payload, which is
// exactly volume mode. Each owner's tiles travel as one batch, metered as one
// message per tile, labeled trace.PhaseLayout so the harness can exclude them
// from algorithm-attributed volume.
func Scatter(c *smpi.Comm, root int, a *mat.Matrix, g grid.Grid, s *Store) {
	checkGrid(g, s)
	prev := c.Phase()
	defer c.SetPhase(prev) // only the collective's own traffic is "layout"
	c.SetPhase(trace.PhaseLayout)
	if c.Rank() != root {
		if lens := tileLens(s.bc, s.row, s.col); len(lens) > 0 {
			s.touch()
			c.RecvBatches([]int{root}, Tag, [][]int{lens}, make([]int, len(lens)),
				func(_ int, wire []float64) { copy(s.panel.Data, wire) })
		}
		return
	}
	if a != nil && (a.Rows != s.bc.N || a.Cols != s.bc.N) {
		panic(fmt.Sprintf("dist: Scatter matrix %dx%d != global dimension %d", a.Rows, a.Cols, s.bc.N))
	}
	numeric := a != nil && !a.Phantom()
	for row := 0; row < g.Pr; row++ {
		for col := 0; col < g.Pc; col++ {
			owner, lens := g.Rank(row, col, s.layer), tileLens(s.bc, row, col)
			switch {
			case len(lens) == 0:
			case owner == root: // local placement, not network traffic
				if s.touch(); numeric && s.payload {
					copyTiles(s.bc, row, col, a, s.panel.Data, true)
				}
			default:
				var pack func(wire []float64)
				if numeric {
					pack = func(wire []float64) { copyTiles(s.bc, row, col, a, wire, true) }
				}
				c.SendBatch(owner, Tag, lens, pack)
			}
		}
	}
}

// Gather collects the stores' tiles back into dst at root — the inverse of
// Scatter, with the same participation rule (root plus every rank of the
// store's layer, on the world communicator) and the same one batch per
// owner, one metered message per tile. dst is consulted at root only; nil
// (the non-root convention) or phantom dst still drains and meters every
// message, so numeric and volume runs keep identical schedules. The root
// books its deliveries in (ti, tj) order whichever owner's batch lands
// first. Traffic is labeled trace.PhaseCollect.
func Gather(c *smpi.Comm, root int, dst *mat.Matrix, g grid.Grid, s *Store) {
	checkGrid(g, s)
	prev := c.Phase()
	defer c.SetPhase(prev) // only the collective's own traffic is "collect"
	c.SetPhase(trace.PhaseCollect)
	if c.Rank() != root {
		if lens := tileLens(s.bc, s.row, s.col); len(lens) > 0 {
			var pack func(wire []float64)
			if s.touch(); s.payload {
				pack = func(wire []float64) { copy(wire, s.panel.Data) }
			}
			c.SendBatch(root, Tag, lens, pack)
		}
		return
	}
	if dst != nil && (dst.Rows != s.bc.N || dst.Cols != s.bc.N) {
		panic(fmt.Sprintf("dist: Gather matrix %dx%d != global dimension %d", dst.Rows, dst.Cols, s.bc.N))
	}
	numeric := dst != nil && !dst.Phantom()
	// batch[row*Pc+col] is the index of that position's batch, −1 where it
	// sends none (it owns nothing, or it is the root itself).
	var froms []int
	var parts [][]int
	batch := make([]int, g.Pr*g.Pc)
	for row := 0; row < g.Pr; row++ {
		for col := 0; col < g.Pc; col++ {
			owner, lens := g.Rank(row, col, s.layer), tileLens(s.bc, row, col)
			batch[row*g.Pc+col] = -1
			switch {
			case len(lens) == 0:
			case owner == root:
				if s.touch(); numeric && s.payload {
					copyTiles(s.bc, row, col, dst, s.panel.Data, false)
				}
			default:
				batch[row*g.Pc+col] = len(froms)
				froms, parts = append(froms, owner), append(parts, lens)
			}
		}
	}
	nt := s.bc.Tiles()
	seq := make([]int, 0, nt*nt)
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			if i := batch[s.bc.OwnerRow(ti)*g.Pc+s.bc.OwnerCol(tj)]; i >= 0 {
				seq = append(seq, i)
			}
		}
	}
	c.RecvBatches(froms, Tag, parts, seq, func(i int, wire []float64) {
		if numeric {
			row, col, _ := g.Coords(froms[i])
			copyTiles(s.bc, row, col, dst, wire, false)
		}
	})
}
