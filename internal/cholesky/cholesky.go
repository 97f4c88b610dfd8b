// Package cholesky extends the COnfLUX schedule to Cholesky factorization —
// the kernel the paper's conclusion nominates next ("this promising result
// mandates the exploration of the parallel pebbling strategy to algorithms
// such as Cholesky factorization"). Cholesky needs no pivoting, so the
// X-Partitioning-guided schedule simplifies: per block step, the block
// column is reduced across the replication layers, the diagonal block is
// factored locally (POTRF) and broadcast, the panel is solved against L00ᵀ,
// and the symmetric trailing update is applied lazily into the step's
// assigned layer. Layer grids are SQUARE (Pr = Pc), so each consumer needs
// exactly two panel parts (its grid row's and its grid column's) — the
// classic symmetric-distribution trick.
//
// The leading per-rank volume is N³/(P√M)-class, against the lower bound
// ≈ N³/(3P√M) derived by internal/xpart for the Cholesky DAAP.
package cholesky

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/blas"
	"repro/internal/costmodel"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// ErrNotPD is returned when a non-positive pivot appears.
var ErrNotPD = errors.New("cholesky: matrix is not positive definite")

// Options configures a distributed Cholesky run. Grid layers must be square
// (Pr == Pc).
type Options struct {
	Name string
	N    int
	V    int
	Grid grid.Grid
}

// DefaultOptions picks the best square-layer 2.5D grid for p ranks with
// per-rank memory mem (elements), and the blocking parameter
// costmodel.BaselineBlockSize (v = 2c, floored at 4).
func DefaultOptions(n, p int, mem float64) Options {
	maxC := grid.MaxReplication(p, mem, n)
	best := grid.Grid{Pr: 1, Pc: 1, Layers: 1, Total: p}
	bestCost := math.Inf(1)
	for c := 1; c <= maxC; c++ {
		pr := int(math.Sqrt(float64(p / c)))
		for ; pr >= 1; pr-- {
			g := grid.Grid{Pr: pr, Pc: pr, Layers: c, Total: p}
			if !g.Valid() || float64(g.Used()) < 0.5*float64(p) {
				continue
			}
			nn := float64(n) * float64(n)
			cost := nn/float64(c*pr) + float64(c-1)*nn/float64(g.Used())
			if cost < bestCost || (cost == bestCost && g.Used() > best.Used()) {
				best, bestCost = g, cost
			}
			break // largest square for this c
		}
	}
	return Options{Name: "Cholesky25D", N: n, V: costmodel.BaselineBlockSize(n, best.Layers), Grid: best}
}

// Result carries the factor: at world rank 0 (numeric mode), L is the lower
// Cholesky factor with A = L·Lᵀ.
type Result struct {
	L *mat.Matrix
}

// Potrf factors a symmetric positive definite matrix in place into its lower
// Cholesky factor (zeroing the strict upper triangle).
func Potrf(a *mat.Matrix) error {
	n := a.Rows
	if a.Cols != n {
		panic("cholesky: Potrf requires square input")
	}
	if a.Phantom() {
		return nil
	}
	for k := 0; k < n; k++ {
		d := a.At(k, k)
		for j := 0; j < k; j++ {
			d -= a.At(k, j) * a.At(k, j)
		}
		if d <= 0 {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		a.Set(k, k, d)
		for i := k + 1; i < n; i++ {
			s := a.At(i, k)
			for j := 0; j < k; j++ {
				s -= a.At(i, j) * a.At(k, j)
			}
			a.Set(i, k, s/d)
		}
		for j := k + 1; j < n; j++ {
			a.Set(k, j, 0)
		}
	}
	return nil
}

// TrsmRightLowerT solves X·L00ᵀ = B in place: each row of B becomes the
// corresponding row of the panel factor L10.
func TrsmRightLowerT(l00 *mat.Matrix, b *mat.Matrix) {
	if l00.Rows != l00.Cols || l00.Rows != b.Cols {
		panic("cholesky: TrsmRightLowerT shape mismatch")
	}
	if l00.Phantom() || b.Phantom() {
		return
	}
	n := l00.Rows
	for i := 0; i < b.Rows; i++ {
		row := b.Row(i)
		for j := 0; j < n; j++ {
			s := row[j]
			for k := 0; k < j; k++ {
				s -= row[k] * l00.At(j, k)
			}
			row[j] = s / l00.At(j, j)
		}
	}
}

// Run executes the 2.5D Cholesky. a (symmetric positive definite) is
// consulted at world rank 0 only; nil selects volume mode.
func Run(c *smpi.Comm, a *mat.Matrix, opt Options) (*Result, error) {
	if opt.Name == "" {
		opt.Name = "Cholesky25D"
	}
	if opt.Grid.Pr != opt.Grid.Pc {
		panic("cholesky: layer grids must be square (Pr == Pc)")
	}
	if opt.V < opt.Grid.Layers {
		panic(fmt.Sprintf("cholesky: v=%d must be >= c=%d", opt.V, opt.Grid.Layers))
	}
	if c.Size() != opt.Grid.Total {
		panic(fmt.Sprintf("cholesky: world %d != grid total %d", c.Size(), opt.Grid.Total))
	}
	if c.WorldRank() >= opt.Grid.Used() {
		return &Result{}, nil
	}
	e := &engine{world: c, opt: opt}
	return e.run(a)
}

type panelPart struct {
	rows []int
	data *mat.Matrix
}

type engine struct {
	world *smpi.Comm
	opt   Options

	g               grid.Grid
	bc              grid.BlockCyclic
	row, col, layer int
	ac              *smpi.Comm
	fiber           *smpi.Comm
	store           *dist.Store

	l00   *mat.Matrix
	parts map[int]panelPart // received panel parts, keyed by grid row
}

func (e *engine) run(a *mat.Matrix) (*Result, error) {
	e.g = e.opt.Grid
	e.bc = grid.BlockCyclic{G: e.g, V: e.opt.V, N: e.opt.N}
	e.row, e.col, e.layer = e.g.Coords(e.world.Rank())
	e.ac = e.world.Sub("active", e.g.ActiveComm())
	e.fiber = e.ac.Sub(fmt.Sprintf("fiber.%d.%d", e.row, e.col), e.g.FiberComm(e.row, e.col))
	e.store = dist.NewStore(e.bc, e.row, e.col, e.layer, e.world.Payload())
	if e.layer == 0 {
		dist.Scatter(e.world, 0, a, e.g, e.store)
	}

	nt := e.bc.Tiles()
	for t := 0; t < nt; t++ {
		stack, rows, err := e.panelStep(t)
		if err != nil {
			return nil, err
		}
		e.distributePanel(t, stack, rows)
		e.update(t)
	}

	res := &Result{}
	if e.layer == 0 {
		if e.world.Rank() == 0 {
			l := mat.NewPhantom(e.opt.N, e.opt.N)
			if e.world.Payload() {
				l = mat.New(e.opt.N, e.opt.N)
			}
			dist.Gather(e.world, 0, l, e.g, e.store)
			if e.world.Payload() {
				for i := 0; i < l.Rows; i++ {
					for j := i + 1; j < l.Cols; j++ {
						l.Set(i, j, 0)
					}
				}
			}
			res.L = l
		} else {
			dist.Gather(e.world, 0, nil, e.g, e.store)
		}
	}
	return res, nil
}

// panelStep reduces block column t across layers, factors the diagonal
// block, broadcasts L00, and solves the sub-diagonal panel rows.
func (e *engine) panelStep(t int) (*mat.Matrix, []int, error) {
	e.ac.SetPhase(e.opt.Name + ".panel")
	_, w := e.bc.TileDims(t, t)
	var stack *mat.Matrix
	var rows []int
	if e.col == e.bc.OwnerCol(t) {
		rows = e.bc.RowsInGridRow(e.row, t*e.opt.V)
		if len(rows) > 0 {
			stack = e.store.StackColumnRows(t, rows)
			e.fiber.ReduceMatSum(0, stack)
			if e.layer != 0 && e.store.Payload() {
				e.store.UnstackColumnRows(t, rows, mat.New(len(rows), w))
			}
		}
	}
	diagOwner := e.g.Rank(e.bc.OwnerRow(t), e.bc.OwnerCol(t), 0)
	e.l00 = e.store.NewBuffer(w, w)
	if e.world.Rank() == diagOwner {
		if e.store.Payload() && stack != nil {
			found := false
			for i, r := range rows {
				if r == t*e.opt.V {
					e.l00.CopyFrom(stack.View(i, 0, w, w))
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("cholesky: diagonal block missing at owner")
			}
		}
		if err := Potrf(e.l00); err != nil {
			return nil, nil, err
		}
	}
	e.ac.BcastMat(diagOwner, e.l00)

	// Solve and store the panel at layer-0 column owners.
	if e.layer == 0 && e.col == e.bc.OwnerCol(t) && stack != nil && e.store.Payload() {
		for i, r := range rows {
			ti := r / e.opt.V
			dst := e.store.Tile(ti, t).View(r-ti*e.opt.V, 0, 1, w)
			if r < t*e.opt.V+w {
				dst.CopyFrom(e.l00.View(r-t*e.opt.V, 0, 1, w))
				stack.View(i, 0, 1, w).CopyFrom(dst) // keep stack consistent
				continue
			}
			seg := stack.View(i, 0, 1, w)
			TrsmRightLowerT(e.l00, seg)
			dst.CopyFrom(seg)
		}
	}
	return stack, rows, nil
}

// distributePanel broadcasts each grid row's solved panel part to the
// assigned layer's consumers: the matching consumer ROW (for the L side) and
// the matching consumer COLUMN (for the Lᵀ side; grid column index == grid
// row index because layers are square).
func (e *engine) distributePanel(t int, stack *mat.Matrix, rows []int) {
	e.ac.SetPhase(e.opt.Name + ".panel-bcast")
	e.parts = map[int]panelPart{}
	_, w := e.bc.TileDims(t, t)
	lo := t*e.opt.V + w
	lstar := t % e.g.Layers
	ownerCol := e.bc.OwnerCol(t)
	for gr := 0; gr < e.g.Pr; gr++ {
		grRows := e.bc.RowsInGridRow(gr, lo)
		owner := e.g.Rank(gr, ownerCol, 0)
		members := []int{owner}
		for y := 0; y < e.g.Pc; y++ {
			if r := e.g.Rank(gr, y, lstar); r != owner && !slices.Contains(members, r) {
				members = append(members, r)
			}
		}
		for x := 0; x < e.g.Pr; x++ {
			if r := e.g.Rank(x, gr, lstar); r != owner && !slices.Contains(members, r) {
				members = append(members, r)
			}
		}
		if !slices.Contains(members, e.world.Rank()) {
			continue
		}
		comm := e.ac.Sub(fmt.Sprintf("chol.%d.%d", t, gr), members)
		buf := e.store.NewBuffer(len(grRows), w)
		if owner == e.world.Rank() && stack != nil && e.store.Payload() {
			idx := map[int]int{}
			for i, r := range rows {
				idx[r] = i
			}
			for i, r := range grRows {
				buf.View(i, 0, 1, w).CopyFrom(stack.View(idx[r], 0, 1, w))
			}
		}
		if len(grRows) > 0 {
			comm.BcastMat(0, buf)
		}
		if e.layer == lstar && (e.row == gr || e.col == gr) {
			e.parts[gr] = panelPart{rows: grRows, data: buf}
		}
	}
}

// update applies the FULL symmetric trailing update A[i,j] -= L10[i]·L10[j]
// into the assigned layer (both triangles are maintained, so later panel
// reductions read correct values without transposition traffic).
func (e *engine) update(t int) {
	e.ac.SetPhase(e.opt.Name + ".update")
	if e.layer != t%e.g.Layers {
		return
	}
	rowPart, okR := e.parts[e.row]
	colPart, okC := e.parts[e.col]
	if !okR || !okC || len(rowPart.rows) == 0 || len(colPart.rows) == 0 {
		return
	}
	w := rowPart.data.Cols
	rowIdx := make(map[int]int, len(rowPart.rows))
	for i, r := range rowPart.rows {
		rowIdx[r] = i
	}
	colIdx := make(map[int]int, len(colPart.rows))
	for i, r := range colPart.rows {
		colIdx[r] = i
	}
	for _, ti := range e.bc.LocalTileRows(e.row, t+1) {
		h, _ := e.bc.TileDims(ti, ti)
		tileL := e.store.NewBuffer(h, w)
		any := false
		for lr := 0; lr < h; lr++ {
			if i, ok := rowIdx[ti*e.opt.V+lr]; ok {
				any = true
				if e.store.Payload() {
					tileL.View(lr, 0, 1, w).CopyFrom(rowPart.data.View(i, 0, 1, w))
				}
			}
		}
		if !any {
			continue
		}
		for _, tj := range e.bc.LocalTileCols(e.col, t+1) {
			_, cw := e.bc.TileDims(tj, tj)
			colBlock := e.store.NewBuffer(cw, w)
			anyC := false
			for lc := 0; lc < cw; lc++ {
				if i, ok := colIdx[tj*e.opt.V+lc]; ok {
					anyC = true
					if e.store.Payload() {
						colBlock.View(lc, 0, 1, w).CopyFrom(colPart.data.View(i, 0, 1, w))
					}
				}
			}
			if !anyC {
				continue
			}
			gemmNT(-1, tileL, colBlock, e.store.Tile(ti, tj))
		}
	}
}

// gemmNT computes C += alpha·A·Bᵀ.
func gemmNT(alpha float64, a, b, c *mat.Matrix) {
	if a.Cols != b.Cols || a.Rows != c.Rows || b.Rows != c.Cols {
		panic("cholesky: gemmNT shape mismatch")
	}
	if a.Phantom() || b.Phantom() || c.Phantom() {
		return
	}
	for i := 0; i < c.Rows; i++ {
		ar, cr := a.Row(i), c.Row(i)
		for j := 0; j < c.Cols; j++ {
			cr[j] += alpha * blas.Dot(ar, b.Row(j))
		}
	}
}
