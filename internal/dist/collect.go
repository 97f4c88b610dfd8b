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

// packPanel leases grid position (row, col)'s panel and fills it from the
// full matrix.
func packPanel(bc grid.BlockCyclic, row, col int, full *mat.Matrix) []float64 {
	panel := mat.GetFloats(localExtent(bc, row, bc.G.Pr) * localExtent(bc, col, bc.G.Pc))
	copyTiles(bc, row, col, full, panel, true)
	return panel
}

// Scatter distributes root's full matrix a into the block-cyclic stores of
// the participating ranks: tile (ti, tj) goes to the rank at grid position
// (OwnerRow(ti), OwnerCol(tj)) on the STORE's layer. It is a collective over
// the root plus every rank of that layer; c must be the world communicator
// (communicator ranks = grid ranks). a is consulted at root only and may be
// nil or phantom — the sends then carry counts without payload, which is
// exactly volume mode, and the stores stay lazy. Each owner's tiles travel as
// one batch, metered as one message per tile, labeled trace.PhaseLayout so
// the harness can exclude them from algorithm-attributed volume. The batch's
// wire buffer is laid out as the owner's panel, and the owner adopts it as
// one; the root leases its own panel — both are wholly written by copyTiles,
// so no store zeroes a panel it is about to overwrite.
func Scatter(c *smpi.Comm, root int, a *mat.Matrix, g grid.Grid, s *Store) {
	checkGrid(g, s)
	prev := c.Phase()
	defer c.SetPhase(prev) // only the collective's own traffic is "layout"
	c.SetPhase(trace.PhaseLayout)
	if c.Rank() != root {
		if lens := tileLens(s.bc, s.row, s.col); len(lens) > 0 {
			c.RecvBatches([]int{root}, Tag, [][]int{lens}, func(_ int, wire []float64) { s.adopt(wire) })
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
				if numeric && s.payload {
					s.adopt(packPanel(s.bc, row, col, a))
				}
			default:
				var wire []float64
				if numeric {
					wire = packPanel(s.bc, row, col, a)
				}
				c.SendBatch(owner, Tag, lens, wire)
			}
		}
	}
}

// Gather collects the stores' tiles back into dst at root — the inverse of
// Scatter, with the same participation rule (root plus every rank of the
// store's layer, on the world communicator) and the same one batch per
// owner, one metered message per tile. dst is consulted at root only; nil
// (the non-root convention) or phantom dst still drains and meters every
// message, so numeric and volume runs keep identical schedules. Traffic is
// labeled trace.PhaseCollect. Gather ends every participating store's life:
// a sender hands its panel over as the batch's wire buffer, and the root
// returns its own panel and every received one to the pool once copied out.
func Gather(c *smpi.Comm, root int, dst *mat.Matrix, g grid.Grid, s *Store) {
	checkGrid(g, s)
	prev := c.Phase()
	defer c.SetPhase(prev) // only the collective's own traffic is "collect"
	c.SetPhase(trace.PhaseCollect)
	if c.Rank() != root {
		if lens := tileLens(s.bc, s.row, s.col); len(lens) > 0 {
			s.touch() // a store never written still sends its zeros
			c.SendBatch(root, Tag, lens, s.take())
		}
		return
	}
	if dst != nil && (dst.Rows != s.bc.N || dst.Cols != s.bc.N) {
		panic(fmt.Sprintf("dist: Gather matrix %dx%d != global dimension %d", dst.Rows, dst.Cols, s.bc.N))
	}
	numeric := dst != nil && !dst.Phantom()
	var froms []int
	var parts [][]int
	for row := 0; row < g.Pr; row++ {
		for col := 0; col < g.Pc; col++ {
			owner, lens := g.Rank(row, col, s.layer), tileLens(s.bc, row, col)
			switch {
			case len(lens) == 0:
			case owner == root:
				if s.touch(); numeric && s.payload {
					copyTiles(s.bc, row, col, dst, s.panel.Data, false)
				}
			default:
				froms, parts = append(froms, owner), append(parts, lens)
			}
		}
	}
	c.RecvBatches(froms, Tag, parts, func(i int, wire []float64) {
		if numeric {
			row, col, _ := g.Coords(froms[i])
			copyTiles(s.bc, row, col, dst, wire, false)
		}
		mat.PutFloats(wire)
	})
	s.Release()
}
