// Package grid implements the processor decompositions of the paper: 2D
// grids for the ScaLAPACK/SLATE baselines, 2.5D grids [√P1, √P1, c] for
// COnfLUX and CANDMC (Fig. 5), block-cyclic ownership maps, and the
// Processor Grid Optimization of §8 ("finds the 3D processor grid with the
// lowest communication cost by possibly disabling a minor fraction of
// nodes").
package grid

import "fmt"

// Grid describes a pr×pc×layers processor grid embedded in a world of
// Total ranks; ranks >= Used are disabled (idle), which is exactly what the
// paper's grid optimization does for difficult-to-factorize rank counts.
type Grid struct {
	Pr, Pc, Layers int
	Total          int // world size the grid is embedded in
}

// Used returns the number of active ranks.
func (g Grid) Used() int { return g.Pr * g.Pc * g.Layers }

// Valid reports whether the grid fits in its world.
func (g Grid) Valid() bool {
	return g.Pr > 0 && g.Pc > 0 && g.Layers > 0 && g.Used() <= g.Total
}

// Coords maps an active world rank to (row, col, layer). Layout: layer-major,
// then row, then column, matching Fig. 5's [√P1, √P1, c] indexing.
func (g Grid) Coords(rank int) (row, col, layer int) {
	if rank < 0 || rank >= g.Used() {
		panic(fmt.Sprintf("grid: rank %d outside active grid of %d", rank, g.Used()))
	}
	layer = rank / (g.Pr * g.Pc)
	rem := rank % (g.Pr * g.Pc)
	return rem / g.Pc, rem % g.Pc, layer
}

// Rank maps (row, col, layer) to the world rank.
func (g Grid) Rank(row, col, layer int) int {
	if row < 0 || row >= g.Pr || col < 0 || col >= g.Pc || layer < 0 || layer >= g.Layers {
		panic(fmt.Sprintf("grid: coords (%d,%d,%d) outside %dx%dx%d", row, col, layer, g.Pr, g.Pc, g.Layers))
	}
	return layer*g.Pr*g.Pc + row*g.Pc + col
}

// RowComm returns the world ranks of grid row `row` in layer `layer`
// (fixed row, all columns).
func (g Grid) RowComm(row, layer int) []int {
	out := make([]int, g.Pc)
	for c := 0; c < g.Pc; c++ {
		out[c] = g.Rank(row, c, layer)
	}
	return out
}

// ColComm returns the world ranks of grid column `col` in layer `layer`.
func (g Grid) ColComm(col, layer int) []int {
	out := make([]int, g.Pr)
	for r := 0; r < g.Pr; r++ {
		out[r] = g.Rank(r, col, layer)
	}
	return out
}

// LayerComm returns the ranks of one full 2D layer.
func (g Grid) LayerComm(layer int) []int {
	out := make([]int, g.Pr*g.Pc)
	for r := 0; r < g.Pr; r++ {
		for c := 0; c < g.Pc; c++ {
			out[r*g.Pc+c] = g.Rank(r, c, layer)
		}
	}
	return out
}

// FiberComm returns the ranks sharing (row, col) across all layers — the
// reduction dimension of the 2.5D decomposition.
func (g Grid) FiberComm(row, col int) []int {
	out := make([]int, g.Layers)
	for l := 0; l < g.Layers; l++ {
		out[l] = g.Rank(row, col, l)
	}
	return out
}

// PanelRowGroup returns the A10 broadcast group of a 2.5D elimination step in
// grid row `row`: the layer-0 rank in ownerCol that solved the panel rows,
// then the assigned layer's consumer row. Every member has grid row `row`.
func (g Grid) PanelRowGroup(row, ownerCol, layer int) []int {
	return rooted(g.Rank(row, ownerCol, 0), g.RowComm(row, layer))
}

// PanelColGroup is the A01 counterpart in grid column col: the layer-0 rank in
// ownerRow that solved the pivot rows, then the assigned layer's consumer
// column. Every member has grid column col.
func (g Grid) PanelColGroup(col, ownerRow, layer int) []int {
	return rooted(g.Rank(ownerRow, col, 0), g.ColComm(col, layer))
}

// rooted returns root followed by the ranks of comm other than root (comm
// contains the root exactly when the assigned layer is layer 0).
func rooted(root int, comm []int) []int {
	out := append(make([]int, 0, len(comm)+1), root)
	for _, r := range comm {
		if r != root {
			out = append(out, r)
		}
	}
	return out
}

// ActiveComm returns all active ranks.
func (g Grid) ActiveComm() []int {
	out := make([]int, g.Used())
	for i := range out {
		out[i] = i
	}
	return out
}

// Square2D returns the most square pr×pc×1 grid using ALL p ranks
// (pr·pc = p, pr ≤ pc, pr maximal). This is the greedy strategy the paper
// attributes to LibSci/SLATE — it never disables ranks, which produces the
// communication outliers in Fig. 6a's inset for awkward p.
func Square2D(p int) Grid {
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid{Pr: pr, Pc: p / pr, Layers: 1, Total: p}
}

// BlockCyclic maps tiles to grid positions: tile row i is owned by grid row
// i mod Pr, tile column j by grid column j mod Pc (within each layer).
type BlockCyclic struct {
	G Grid
	V int // tile size (the paper's blocking parameter v)
	N int // global matrix dimension
}

// Tiles returns the number of tile rows/cols (ceil division).
func (b BlockCyclic) Tiles() int { return (b.N + b.V - 1) / b.V }

// OwnerRow returns the grid row owning tile row ti.
func (b BlockCyclic) OwnerRow(ti int) int { return ti % b.G.Pr }

// OwnerCol returns the grid column owning tile column tj.
func (b BlockCyclic) OwnerCol(tj int) int { return tj % b.G.Pc }

// Owner returns the world rank owning tile (ti, tj) in the given layer.
func (b BlockCyclic) Owner(ti, tj, layer int) int {
	return b.G.Rank(b.OwnerRow(ti), b.OwnerCol(tj), layer)
}

// TileDims returns the actual dimensions of tile (ti, tj) (edge tiles may be
// smaller than V).
func (b BlockCyclic) TileDims(ti, tj int) (rows, cols int) {
	rows, cols = b.V, b.V
	if (ti+1)*b.V > b.N {
		rows = b.N - ti*b.V
	}
	if (tj+1)*b.V > b.N {
		cols = b.N - tj*b.V
	}
	return rows, cols
}

// localIndices returns the indices in [from, tiles) congruent to pos mod
// stride — the shared body of LocalTileRows/Cols. The result is exactly
// sized and strided directly: these lists are rebuilt on every engine step,
// so they must cost one allocation and no scan of foreign indices.
func localIndices(tiles, pos, stride, from int) []int {
	if from < 0 {
		from = 0
	}
	first := from + (pos-from%stride+stride)%stride // smallest i >= from with i ≡ pos (mod stride)
	if first >= tiles {
		return nil
	}
	out := make([]int, 0, (tiles-first+stride-1)/stride)
	for i := first; i < tiles; i += stride {
		out = append(out, i)
	}
	return out
}

// LocalTileRows returns the tile-row indices >= from owned by grid row `row`.
func (b BlockCyclic) LocalTileRows(row, from int) []int {
	return localIndices(b.Tiles(), row, b.G.Pr, from)
}

// LocalTileCols returns the tile-col indices >= from owned by grid col `col`.
func (b BlockCyclic) LocalTileCols(col, from int) []int {
	return localIndices(b.Tiles(), col, b.G.Pc, from)
}

// RowsInGridRow lists (ascending) the global rows >= lo owned by grid row
// gr, iterating by tile (O(result + tiles/Pr), not O(N)).
func (b BlockCyclic) RowsInGridRow(gr, lo int) []int {
	// Exact-size hint: ~1/Pr of the remaining rows live in each grid row;
	// the +V slack absorbs tile-boundary rounding so growth never reallocs.
	out := make([]int, 0, (b.N-lo)/b.G.Pr+b.V)
	first := lo / b.V
	first += ((gr-first)%b.G.Pr + b.G.Pr) % b.G.Pr // first tile row >= lo/V owned by gr
	for ti := first; ti*b.V < b.N; ti += b.G.Pr {
		for r := max(ti*b.V, lo); r < min((ti+1)*b.V, b.N); r++ {
			out = append(out, r)
		}
	}
	return out
}
