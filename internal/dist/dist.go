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
// the block-cyclic mapping bc. The rank's tiles live in a flat slice over its
// local tile grid: tile (ti, tj) with ti ≡ row (mod Pr) and tj ≡ col (mod Pc)
// sits at local coordinates (ti/Pr, tj/Pc), row-major — an index computation
// instead of a map hash on every access. Tiles still materialize lazily on
// first access (the slice holds nil until then), so a store created on a
// non-zero replication layer starts as an all-zero accumulator without
// touching payload memory it never uses. A Store belongs to one rank (one
// goroutine) and is not safe for concurrent use.
type Store struct {
	bc              grid.BlockCyclic
	row, col, layer int
	payload         bool

	localCols int           // tile columns this rank owns (tj ≡ col mod Pc)
	tiles     []*mat.Matrix // localRows × localCols, row-major, nil = not yet materialized
	allocated int           // non-nil entries, kept so Allocated() is O(1)
}

// localCount returns how many indices in [0, tiles) map to grid position
// `pos` under the cyclic map (i.e. i ≡ pos mod stride).
func localCount(tiles, pos, stride int) int {
	if tiles <= pos {
		return 0
	}
	return (tiles - pos + stride - 1) / stride
}

// NewStore creates the tile store for the rank at grid position (row, col,
// layer). payload=false selects volume mode: every tile and buffer the store
// hands out is phantom, and the store allocates no payload memory — only the
// flat pointer grid over its local tiles.
func NewStore(bc grid.BlockCyclic, row, col, layer int, payload bool) *Store {
	if row < 0 || row >= bc.G.Pr || col < 0 || col >= bc.G.Pc || layer < 0 || layer >= bc.G.Layers {
		panic(fmt.Sprintf("dist: position (%d,%d,%d) outside %dx%dx%d grid", row, col, layer, bc.G.Pr, bc.G.Pc, bc.G.Layers))
	}
	nt := bc.Tiles()
	localRows := localCount(nt, row, bc.G.Pr)
	localCols := localCount(nt, col, bc.G.Pc)
	return &Store{
		bc: bc, row: row, col: col, layer: layer, payload: payload,
		localCols: localCols,
		tiles:     make([]*mat.Matrix, localRows*localCols),
	}
}

// Payload reports whether the store carries numeric data (false = phantom).
func (s *Store) Payload() bool { return s.payload }

// Owns reports whether this rank owns tile (ti, tj) under the cyclic map.
func (s *Store) Owns(ti, tj int) bool {
	return s.bc.OwnerRow(ti) == s.row && s.bc.OwnerCol(tj) == s.col
}

// Tile returns the local tile (ti, tj), allocating it zeroed (or phantom) on
// first access. It panics if the tile is out of range or owned by another
// rank — engines indexing a foreign tile is always a schedule bug. The hot
// path is a flat-slice index over the local tile grid: (ti/Pr, tj/Pc).
func (s *Store) Tile(ti, tj int) *mat.Matrix {
	nt := s.bc.Tiles()
	if ti < 0 || ti >= nt || tj < 0 || tj >= nt {
		panic(fmt.Sprintf("dist: tile (%d,%d) outside %dx%d tile grid", ti, tj, nt, nt))
	}
	if !s.Owns(ti, tj) {
		panic(fmt.Sprintf("dist: tile (%d,%d) belongs to grid position (%d,%d), not (%d,%d)",
			ti, tj, s.bc.OwnerRow(ti), s.bc.OwnerCol(tj), s.row, s.col))
	}
	idx := (ti/s.bc.G.Pr)*s.localCols + tj/s.bc.G.Pc
	t := s.tiles[idx]
	if t == nil {
		t = s.NewBuffer(s.bc.TileDims(ti, tj))
		s.tiles[idx] = t
		s.allocated++
	}
	return t
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

// StackColumnRows copies the given global rows of tile column tj out of the
// store into a dense len(rows)×w stack (w the column's width; a phantom
// buffer in volume mode). Every row must lie in a tile this rank owns.
func (s *Store) StackColumnRows(tj int, rows []int) *mat.Matrix {
	_, w := s.bc.TileDims(tj, tj)
	stack := s.NewBuffer(len(rows), w)
	if s.payload {
		for i, r := range rows {
			ti := r / s.bc.V
			stack.View(i, 0, 1, w).CopyFrom(s.Tile(ti, tj).View(r-ti*s.bc.V, 0, 1, w))
		}
	}
	return stack
}

// UnstackColumnRows writes a stack taken by StackColumnRows back into tile
// column tj (a no-op in volume mode).
func (s *Store) UnstackColumnRows(tj int, rows []int, stack *mat.Matrix) {
	if !s.payload {
		return
	}
	_, w := s.bc.TileDims(tj, tj)
	for i, r := range rows {
		ti := r / s.bc.V
		s.Tile(ti, tj).View(r-ti*s.bc.V, 0, 1, w).CopyFrom(stack.View(i, 0, 1, w))
	}
}

// Allocated returns the number of tiles materialized so far (test hook).
func (s *Store) Allocated() int { return s.allocated }

// eachOwnedTile visits this rank's tiles in deterministic (ti, tj) ascending
// order — the iteration order both collectives rely on.
func (s *Store) eachOwnedTile(fn func(ti, tj int)) {
	for _, ti := range s.bc.LocalTileRows(s.row, 0) {
		for _, tj := range s.bc.LocalTileCols(s.col, 0) {
			fn(ti, tj)
		}
	}
}
