// Package dist is the distributed-matrix store shared by all four LU/Cholesky
// engines: each rank holds the tiles it owns under a block-cyclic ownership
// map (grid.BlockCyclic), and the package's two collectives move tiles
// between rank 0's full matrix and the owner ranks.
//
// The store sits between grid/smpi and the engines. It inherits the world's
// payload mode: in numeric mode tiles carry real float64 data; in volume mode
// tiles are phantom (dimensions only), so the store allocates no payload
// memory while the collectives still meter the exact bytes the paper's
// methodology counts (§8). Scatter traffic is labeled trace.PhaseLayout and
// Gather traffic trace.PhaseCollect, which is how the harness excludes the
// housekeeping phases from algorithm-attributed volume: the paper "assume[s]
// that the input matrix A is already distributed in the block cyclic layout
// imposed by the algorithm" (§7.4).
package dist

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mat"
)

// Store holds the tiles of one rank — grid position (row, col, layer) — under
// the block-cyclic mapping bc, as ONE contiguous row-major local matrix: the
// rank's local tile rows × local tile columns laid side by side, the ragged
// last tile trimmed. Tile (ti, tj) with ti ≡ row (mod Pr) and tj ≡ col
// (mod Pc) is the strided view at local tile coordinates (ti/Pr, tj/Pc); a
// global row maps to exactly one local row (LocalRow), and because ownership
// is cyclic the owned tile columns ≥ t are a suffix of the local columns, so a
// rank's whole trailing sub-matrix of an elimination step is a single view
// (Trailing). That is what lets the 2.5D engines apply a step's Schur update
// as one kernel call and copy a panel row as one contiguous segment.
//
// A numeric store's panel comes from one of two places. Scatter gives it one:
// an owner adopts the wire buffer of its batch, and the root leases its own,
// so each layout byte is written once. Any other store — an accumulator on a
// layer above 0 — materializes its panel lazily, zeroed, on the first tile or
// view access; laziness is per store, so a store that is never touched holds
// no payload memory. A volume-mode store never materializes: every view it
// hands out is phantom with the right shape. The panel leaves the store once,
// for good: Gather hands a sender's panel over as the wire buffer and returns
// the root's to the pool, and Release returns any store's to the pool. Any
// later Tile, Trailing or LocalRow(s) call panics. A Store belongs to one rank
// (one goroutine) and is not safe for concurrent use.
type Store struct {
	bc              grid.BlockCyclic
	row, col, layer int
	payload         bool
	spent           bool // the panel has left the store (Gather, Release)

	panel mat.Matrix // local rows × local cols; Data nil until adopted or touched (always nil in volume mode)
}

// localCount returns how many indices in [0, tiles) map to grid position
// `pos` under the cyclic map (i.e. i ≡ pos mod stride).
func localCount(tiles, pos, stride int) int {
	if tiles <= pos {
		return 0
	}
	return (tiles - pos + stride - 1) / stride
}

// localExtent returns how many of the n global rows (or columns) fall in
// tiles owned by grid position pos: v per owned tile, less what the global
// last tile is cut short by when pos owns it.
func localExtent(bc grid.BlockCyclic, pos, stride int) int {
	nt := bc.Tiles()
	ext := localCount(nt, pos, stride) * bc.V
	if nt > 0 && (nt-1)%stride == pos {
		ext -= nt*bc.V - bc.N
	}
	return ext
}

// NewStore creates the tile store for the rank at grid position (row, col,
// layer). payload=false selects volume mode: every tile and buffer the store
// hands out is phantom, and the store never allocates payload memory.
func NewStore(bc grid.BlockCyclic, row, col, layer int, payload bool) *Store {
	if row < 0 || row >= bc.G.Pr || col < 0 || col >= bc.G.Pc || layer < 0 || layer >= bc.G.Layers {
		panic(fmt.Sprintf("dist: position (%d,%d,%d) outside %dx%dx%d grid", row, col, layer, bc.G.Pr, bc.G.Pc, bc.G.Layers))
	}
	rows, cols := localExtent(bc, row, bc.G.Pr), localExtent(bc, col, bc.G.Pc)
	return &Store{
		bc: bc, row: row, col: col, layer: layer, payload: payload,
		panel: mat.Matrix{Rows: rows, Cols: cols, Stride: cols},
	}
}

// Payload reports whether the store carries numeric data (false = phantom).
func (s *Store) Payload() bool { return s.payload }

// Owns reports whether this rank owns tile (ti, tj) under the cyclic map.
func (s *Store) Owns(ti, tj int) bool {
	return s.bc.OwnerRow(ti) == s.row && s.bc.OwnerCol(tj) == s.col
}

// touch materializes the panel of a numeric store on first access.
func (s *Store) touch() {
	s.live()
	if s.payload && s.panel.Data == nil {
		s.panel.Data = make([]float64, s.panel.Rows*s.panel.Cols)
	}
}

// live panics once the panel has left the store: a lazy re-materialization
// would hand the caller zeros where its data was.
func (s *Store) live() {
	if s.spent {
		panic("dist: store used after its panel was handed over or released")
	}
}

// adopt makes panel, which holds every element of the local matrix, the
// store's panel.
func (s *Store) adopt(panel []float64) {
	s.live()
	mat.PutFloats(s.panel.Data)
	s.panel.Data = panel
}

// take ends the store's life and returns its panel (nil if it never had one).
func (s *Store) take() []float64 {
	s.live()
	panel := s.panel.Data
	s.panel.Data, s.spent = nil, true
	return panel
}

// Release returns the panel to the pool (mat.PutFloats). The store must not
// be used again: every later access panics.
func (s *Store) Release() { mat.PutFloats(s.take()) }

// Tile returns the local tile (ti, tj): a view of the panel (phantom in
// volume mode), so writes through it are writes to the store. It panics if
// the tile is out of range or owned by another rank — engines indexing a
// foreign tile is always a schedule bug. The work lives in locate so that
// Tile itself inlines and a tile consumed in-statement (CopyFrom, SendMat, a
// kernel call) never reaches the heap.
func (s *Store) Tile(ti, tj int) *mat.Matrix {
	t := s.locate(ti, tj)
	return &t
}

// locate bounds- and ownership-checks tile (ti, tj), materializes the panel
// and returns the tile's view of it.
func (s *Store) locate(ti, tj int) mat.Matrix {
	nt := s.bc.Tiles()
	if ti < 0 || ti >= nt || tj < 0 || tj >= nt {
		panic(fmt.Sprintf("dist: tile (%d,%d) outside %dx%d tile grid", ti, tj, nt, nt))
	}
	if !s.Owns(ti, tj) {
		panic(fmt.Sprintf("dist: tile (%d,%d) belongs to grid position (%d,%d), not (%d,%d)",
			ti, tj, s.bc.OwnerRow(ti), s.bc.OwnerCol(tj), s.row, s.col))
	}
	s.touch()
	h, w := s.bc.TileDims(ti, tj)
	return *s.panel.View(ti/s.bc.G.Pr*s.bc.V, tj/s.bc.G.Pc*s.bc.V, h, w)
}

// LocalRow maps global row r to its row of the panel (and of every Trailing
// view). It panics if r lies in a tile row of another grid row.
func (s *Store) LocalRow(r int) int {
	s.live()
	ti := r / s.bc.V
	if r < 0 || r >= s.bc.N || s.bc.OwnerRow(ti) != s.row {
		panic(fmt.Sprintf("dist: row %d is not local to grid row %d", r, s.row))
	}
	return ti/s.bc.G.Pr*s.bc.V + r - ti*s.bc.V
}

// LocalRows maps a list of global rows to their panel rows.
func (s *Store) LocalRows(rows []int) []int {
	local := make([]int, len(rows))
	for i, r := range rows {
		local[i] = s.LocalRow(r)
	}
	return local
}

// column returns every local row of the owned tile column tj as one view —
// by value, like locate, so the stack helpers' views stay off the heap.
func (s *Store) column(tj int) mat.Matrix {
	if tj < 0 || tj >= s.bc.Tiles() || s.bc.OwnerCol(tj) != s.col {
		panic(fmt.Sprintf("dist: tile column %d is not local to grid column %d", tj, s.col))
	}
	s.touch()
	_, w := s.bc.TileDims(tj, tj)
	return *s.panel.View(0, tj/s.bc.G.Pc*s.bc.V, s.panel.Rows, w)
}

// Trailing returns every local row of the owned tile columns ≥ from as one
// view: ownership is cyclic, so those columns are a suffix of the panel's.
// Its column layout is the concatenation of bc.LocalTileCols(col, from) — the
// layout of the engines' A01 panels. Inlinable for the same reason as Tile:
// the work lives in trailing.
func (s *Store) Trailing(from int) *mat.Matrix {
	t := s.trailing(from)
	return &t
}

func (s *Store) trailing(from int) mat.Matrix {
	s.touch()
	w := s.TrailingCols(from)
	return *s.panel.View(0, s.panel.Cols-w, s.panel.Rows, w)
}

// TrailingCols returns Trailing(from).Cols — the width of the engines' A01
// panels — without building the view.
func (s *Store) TrailingCols(from int) int {
	return s.panel.Cols - min(localCount(from, s.col, s.bc.G.Pc)*s.bc.V, s.panel.Cols)
}

// NewBuffer allocates a rows×cols scratch matrix in the store's payload mode
// (numeric via mat.New, phantom via mat.NewPhantom). Engines use it for every
// transient the communication layer touches, so numeric and volume runs share
// one code path.
func (s *Store) NewBuffer(rows, cols int) *mat.Matrix {
	if s.payload {
		return mat.New(rows, cols)
	}
	return mat.NewPhantom(rows, cols)
}

// UnstackColumnRows writes a dense len(rows)×w stack (w the width of tile
// column tj) into the given global rows of tile column tj, row i of the stack
// into global row rows[i] (a no-op in volume mode). Every row must lie in a
// tile this rank owns.
func (s *Store) UnstackColumnRows(tj int, rows []int, stack *mat.Matrix) {
	col := s.column(tj)
	s.unstackRows(&col, rows, stack)
}

// UnstackTrailingRows is UnstackColumnRows over Trailing(from): the given
// global rows across every owned tile column ≥ from, one contiguous segment
// each.
func (s *Store) UnstackTrailingRows(from int, rows []int, stack *mat.Matrix) {
	s.unstackRows(s.Trailing(from), rows, stack)
}

func (s *Store) unstackRows(view *mat.Matrix, rows []int, stack *mat.Matrix) {
	if stack.Rows != len(rows) || stack.Cols != view.Cols {
		panic(fmt.Sprintf("dist: %dx%d stack for %d rows of a %d-wide view", stack.Rows, stack.Cols, len(rows), view.Cols))
	}
	if !s.payload {
		return
	}
	for i, r := range rows {
		copy(view.Row(s.LocalRow(r)), stack.Row(i))
	}
}

// Allocated returns the number of payload elements the store holds: 0 until
// Scatter or the first tile access gives it a panel, the whole local panel
// after, 0 again once the panel has left (test hook).
func (s *Store) Allocated() int { return len(s.panel.Data) }
