package dist_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// layout is how a round trip moves the tiles: the package's batched
// collectives, or the per-tile reference they replaced.
type layout struct {
	scatter, gather func(c *smpi.Comm, root int, m *mat.Matrix, g grid.Grid, s *dist.Store)
}

var batched = layout{dist.Scatter, dist.Gather}

// perTile is the test-only parity oracle: Scatter and Gather as they were
// before the batch — one tagged SendMat/RecvMat per tile, in (ti, tj) order.
// It takes the map and the target layer because a Store exports neither.
func perTile(bc grid.BlockCyclic, layer int) layout {
	each := func(c *smpi.Comm, root int, m *mat.Matrix, g grid.Grid, s *dist.Store, phase string,
		remote func(owner, tag int, tile, view *mat.Matrix), local func(tile, view *mat.Matrix)) {
		prev := c.Phase()
		defer c.SetPhase(prev)
		c.SetPhase(phase)
		nt := bc.Tiles()
		for ti := 0; ti < nt; ti++ {
			for tj := 0; tj < nt; tj++ {
				owner := bc.Owner(ti, tj, layer)
				if c.Rank() != root && c.Rank() != owner {
					continue
				}
				h, w := bc.TileDims(ti, tj)
				view := mat.NewPhantom(h, w)
				if c.Rank() == root && m != nil {
					view = m.View(ti*bc.V, tj*bc.V, h, w)
				}
				var tile *mat.Matrix
				if c.Rank() == owner {
					tile = s.Tile(ti, tj)
				}
				if owner == root {
					local(tile, view)
				} else {
					remote(owner, ti*nt+tj+1, tile, view)
				}
			}
		}
	}
	return layout{
		scatter: func(c *smpi.Comm, root int, a *mat.Matrix, g grid.Grid, s *dist.Store) {
			each(c, root, a, g, s, trace.PhaseLayout, func(owner, tag int, tile, view *mat.Matrix) {
				if c.Rank() == root {
					c.SendMat(owner, tag, view)
				} else {
					c.RecvMat(root, tag, tile)
				}
			}, func(tile, view *mat.Matrix) { tile.CopyFrom(view) })
		},
		gather: func(c *smpi.Comm, root int, dst *mat.Matrix, g grid.Grid, s *dist.Store) {
			each(c, root, dst, g, s, trace.PhaseCollect, func(owner, tag int, tile, view *mat.Matrix) {
				if c.Rank() == root {
					c.RecvMat(owner, tag, view)
				} else {
					c.SendMat(root, tag, tile)
				}
			}, func(tile, view *mat.Matrix) { view.CopyFrom(tile) })
		},
	}
}

// trip is one scatter→gather round trip: the matrix shape, the grid and the
// layer whose stores take the tiles, the payload mode, the executor, and
// which implementation moves them.
type trip struct {
	g        grid.Grid
	n, v     int
	layer    int
	payload  bool
	executor smpi.Executor
	perTile  bool // move the tiles with the per-tile reference, not the package's collectives
}

// roundTrip scatters a (random in payload mode, nil in volume mode) matrix
// from rank 0 across the stores of tr.layer and gathers it back, returning
// the run's report and the gathered matrix. Other
// layers and disabled ranks sit out, exactly as the engines use the
// collectives; every active rank first takes part in a timed ring exchange,
// and the participants in a second one between the two collectives, so the
// clocks the untimed phases must leave alone differ from rank to rank.
func roundTrip(t testing.TB, tr trip) (*trace.Report, *mat.Matrix) {
	t.Helper()
	g, n := tr.g, tr.n
	bc := grid.BlockCyclic{G: g, V: tr.v, N: n}
	var src, got *mat.Matrix
	if tr.payload {
		src = mat.Random(n, n, 0xD157)
	}
	via := batched
	if tr.perTile {
		via = perTile(bc, tr.layer)
	}
	// ring passes a rank-sized message around members (ascending world ranks).
	ring := func(c *smpi.Comm, tag int, members []int) {
		if p := len(members); p > 1 {
			me := slices.Index(members, c.Rank())
			c.SendMat(members[(me+1)%p], tag, mat.NewPhantom(1, c.Rank()+1))
			c.Recv(members[(me+p-1)%p], tag)
		}
	}
	participants := g.LayerComm(tr.layer)
	if tr.layer != 0 {
		participants = append([]int{0}, participants...)
	}
	w := smpi.NewWorld(g.Total, tr.payload)
	rep, err := smpi.Exec(context.Background(), smpi.Config{World: w, Executor: tr.executor}, func(c *smpi.Comm) error {
		if c.Rank() >= g.Used() {
			return nil
		}
		c.SetPhase("caller-phase")
		ring(c, 1<<20, g.ActiveComm())
		row, col, layer := g.Coords(c.Rank())
		if layer != tr.layer && c.Rank() != 0 {
			return nil
		}
		// Rank 0 routes by the target layer even when it does not sit on it.
		s := dist.NewStore(bc, row, col, tr.layer, c.Payload())
		var a *mat.Matrix
		if c.Rank() == 0 {
			a = src
		}
		via.scatter(c, 0, a, g, s)
		if ph := c.Phase(); ph != "caller-phase" {
			t.Errorf("rank %d: Scatter left phase %q, want caller's restored", c.Rank(), ph)
		}
		if !tr.payload && layer == tr.layer {
			// Volume mode must allocate no payload: every tile is phantom.
			for _, ti := range bc.LocalTileRows(row, 0) {
				for _, tj := range bc.LocalTileCols(col, 0) {
					if !s.Tile(ti, tj).Phantom() {
						t.Errorf("rank %d: tile (%d,%d) carries payload in volume mode", c.Rank(), ti, tj)
					}
				}
			}
		}
		ring(c, 1<<21, participants)
		var dst *mat.Matrix
		if c.Rank() == 0 {
			if tr.payload {
				dst = mat.New(n, n)
			} else {
				dst = mat.NewPhantom(n, n)
			}
		}
		via.gather(c, 0, dst, g, s)
		if ph := c.Phase(); ph != "caller-phase" {
			t.Errorf("rank %d: Gather left phase %q, want caller's restored", c.Rank(), ph)
		}
		if c.Rank() == 0 {
			got = dst
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if tr.payload {
		if got == nil {
			t.Fatal("no matrix gathered at rank 0")
		}
		if d := mat.MaxAbsDiff(src, got); d != 0 {
			t.Fatalf("round trip not exact: max |diff| = %v", d)
		}
	}
	return rep, got
}

// roundTripCases is the shape table of the round-trip, parity and fuzz tests
// (the fuzz seed corpus under testdata/fuzz repeats it): 2D grids, 2.5D grids
// (Layers > 1), grids with disabled ranks, uneven edge tiles.
var roundTripCases = []struct {
	name string
	g    grid.Grid
	n, v int
}{
	{"2x2-even", grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}, 16, 4},
	{"2x3-uneven-edge", grid.Grid{Pr: 2, Pc: 3, Layers: 1, Total: 6}, 13, 4},
	{"1x1-single", grid.Grid{Pr: 1, Pc: 1, Layers: 1, Total: 1}, 7, 3},
	{"2x2x2-25d", grid.Grid{Pr: 2, Pc: 2, Layers: 2, Total: 8}, 12, 4},
	{"2x2x3-25d-uneven", grid.Grid{Pr: 2, Pc: 2, Layers: 3, Total: 12}, 17, 5},
	{"3x3-disabled-ranks", grid.Grid{Pr: 3, Pc: 3, Layers: 1, Total: 11}, 10, 3},
	{"tile-larger-than-n", grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}, 3, 8},
	// Every tile is a strided view of its rank's panel: both collectives
	// pack from and unpack into rows that are not adjacent in memory.
	{"3x2-ragged-517", grid.Grid{Pr: 3, Pc: 2, Layers: 1, Total: 6}, 517, 4},
}

func modeName(payload bool) string {
	if payload {
		return "numeric"
	}
	return "volume"
}

// housekeeping returns what Scatter (and, symmetrically, Gather) onto the
// given layer must meter, in closed form: every tile rank 0 does not itself
// own there is one message, at 8 bytes per element. Rank 0 sits at grid
// position (0, 0) of layer 0, so on that layer it keeps ⌈nt/Pr⌉·⌈nt/Pc⌉ tiles
// — v rows (columns) each, less what the global last tile is cut short by
// when it is one of them — and on any other layer nothing.
func housekeeping(bc grid.BlockCyclic, layer int) (bytes, msgs int64) {
	nt := bc.Tiles()
	kept := func(stride int) (tiles, extent int) {
		tiles = (nt + stride - 1) / stride
		extent = tiles * bc.V
		if (nt-1)%stride == 0 {
			extent -= nt*bc.V - bc.N
		}
		return tiles, extent
	}
	tr, rows := kept(bc.G.Pr)
	tc, cols := kept(bc.G.Pc)
	if layer != 0 {
		tr, rows, tc, cols = 0, 0, 0, 0
	}
	return int64(bc.N*bc.N-rows*cols) * trace.BytesPerElement, int64(nt*nt - tr*tc)
}

// checkHousekeeping asserts that a round trip's report meters exactly the
// closed-form layout and collect traffic.
func checkHousekeeping(t testing.TB, rep *trace.Report, bc grid.BlockCyclic, layer int) {
	t.Helper()
	bytes, msgs := housekeeping(bc, layer)
	for _, ph := range []string{trace.PhaseLayout, trace.PhaseCollect} {
		if got := rep.ByPhase[ph]; got != bytes {
			t.Errorf("%s bytes = %d, want %d", ph, got, bytes)
		}
		if got := rep.PhaseMsgs[ph]; got != msgs {
			t.Errorf("%s messages = %d, want %d (one per off-root tile)", ph, got, msgs)
		}
	}
}

// The property: Scatter→Gather is the identity at rank 0 and meters exactly
// the off-root tiles — bytes and one message each — under
// PhaseLayout/PhaseCollect, across the shape table and both payload modes.
func TestScatterGatherRoundTrip(t *testing.T) {
	for _, tc := range roundTripCases {
		for _, payload := range []bool{true, false} {
			t.Run(tc.name+"/"+modeName(payload), func(t *testing.T) {
				rep, _ := roundTrip(t, trip{g: tc.g, n: tc.n, v: tc.v, payload: payload})
				bc := grid.BlockCyclic{G: tc.g, V: tc.v, N: tc.n}
				checkHousekeeping(t, rep, bc, 0)
				if bytes, _ := housekeeping(bc, 0); tc.g.Used() > 1 && bc.Tiles() > 1 && bytes == 0 {
					t.Fatalf("degenerate case: no off-root tiles to meter")
				}
			})
		}
	}
}

// TestBatchedLayoutMatchesPerTile is the parity oracle of the batched
// transport: over the whole shape table, in both payload modes and under
// both executors, moving each owner's tiles as one batch must leave what
// moving them one message at a time left — the same gathered matrix, the
// same report field for field (per-rank Sent/Recv/Msgs, ByPhase, PhaseMsgs,
// every clock bit).
func TestBatchedLayoutMatchesPerTile(t *testing.T) {
	for _, tc := range roundTripCases {
		for _, payload := range []bool{true, false} {
			for _, ex := range []smpi.Executor{smpi.ExecGoroutines, smpi.ExecEvents} {
				t.Run(tc.name+"/"+modeName(payload)+"/"+string(ex), func(t *testing.T) {
					tr := trip{g: tc.g, n: tc.n, v: tc.v, payload: payload, executor: ex}
					rep, got := roundTrip(t, tr)
					tr.perTile = true
					wantRep, want := roundTrip(t, tr)
					if payload && mat.MaxAbsDiff(got, want) != 0 {
						t.Errorf("gathered matrices differ")
					}
					for _, f := range []struct {
						name      string
						got, want any
					}{
						{"Sent", rep.Sent, wantRep.Sent}, {"Recv", rep.Recv, wantRep.Recv}, {"Msgs", rep.Msgs, wantRep.Msgs},
						{"ByPhase", rep.ByPhase, wantRep.ByPhase}, {"PhaseMsgs", rep.PhaseMsgs, wantRep.PhaseMsgs},
						{"Time.Clock", rep.Time.Clock, wantRep.Time.Clock}, {"report", rep, wantRep},
					} {
						if !reflect.DeepEqual(f.got, f.want) {
							t.Errorf("%s: batched %+v, per tile %+v", f.name, f.got, f.want)
						}
					}
				})
			}
		}
	}
}

// FuzzScatterGather drives the round trip over arbitrary shapes — matrix and
// tile size, grid, replication depth, which layer takes the tiles (rank 0
// routes to a layer it does not sit on), disabled spare ranks — in both
// payload modes: the gathered matrix is the scattered one (checked inside
// roundTrip) and layout/collect meter the closed form.
func FuzzScatterGather(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, v, pr, pc, layers, layer, spare int) {
		// Fold every argument into its legal range; values already inside it
		// (the seed corpus) mean themselves.
		fold := func(x, m int) int { return int(uint(x) % uint(m)) }
		g := grid.Grid{Pr: 1 + fold(pr-1, 4), Pc: 1 + fold(pc-1, 4), Layers: 1 + fold(layers-1, 3)}
		g.Total = g.Used() + fold(spare, 3)
		bc := grid.BlockCyclic{G: g, V: 1 + fold(v-1, 40), N: 1 + fold(n-1, 600)}
		layer = fold(layer, g.Layers)
		for _, payload := range []bool{true, false} {
			rep, _ := roundTrip(t, trip{g: g, n: bc.N, v: bc.V, layer: layer, payload: payload})
			checkHousekeeping(t, rep, bc, layer)
		}
	})
}

// Volume mode and numeric mode must meter identical housekeeping bytes — the
// central phantom-payload invariant, at the dist layer.
func TestVolumeNumericParity(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 3, Layers: 2, Total: 12}
	numeric, _ := roundTrip(t, trip{g: g, n: 19, v: 4, payload: true})
	volume, _ := roundTrip(t, trip{g: g, n: 19, v: 4, payload: false})
	for _, ph := range []string{trace.PhaseLayout, trace.PhaseCollect} {
		if numeric.ByPhase[ph] != volume.ByPhase[ph] {
			t.Errorf("%s: numeric %d bytes vs volume %d", ph, numeric.ByPhase[ph], volume.ByPhase[ph])
		}
		if volume.ByPhase[ph] == 0 {
			t.Errorf("%s: volume mode metered zero bytes", ph)
		}
	}
}

// Laziness is per store: a fresh numeric store holds no payload, the first
// tile access materializes the whole zeroed local panel (ragged edge tiles
// trimmed), and tiles are views of it, so writes through one handle are seen
// through the next.
func TestStoreLazyAllocation(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 2, Total: 8}
	bc := grid.BlockCyclic{G: g, V: 4, N: 13}
	s := dist.NewStore(bc, 0, 1, 1, true)
	if s.Allocated() != 0 {
		t.Fatalf("fresh store holds %d elements", s.Allocated())
	}
	tile := s.Tile(0, 1)
	if r, w := tile.Rows, tile.Cols; r != 4 || w != 4 {
		t.Fatalf("tile (0,1) is %dx%d, want 4x4", r, w)
	}
	// Grid row 0 owns tile rows {0, 2} (8 rows); grid column 1 owns tile
	// columns {1, 3}, column 3 cut to 13 - 3·4 = 1 wide (5 columns).
	if got := s.Allocated(); got != 8*5 {
		t.Fatalf("panel holds %d elements, want %d", got, 8*5)
	}
	edge := s.Tile(2, 3)
	if r, w := edge.Rows, edge.Cols; r != 4 || w != 1 {
		t.Fatalf("edge tile (2,3) is %dx%d, want 4x1", r, w)
	}
	if got := s.Allocated(); got != 8*5 {
		t.Fatalf("second tile changed the allocation to %d", got)
	}
	if tile.At(1, 2) != 0 {
		t.Fatal("lazily allocated tile is not zeroed")
	}
	tile.Set(1, 2, 5)
	if s.Tile(0, 1).At(1, 2) != 5 {
		t.Fatal("tile writes not persistent")
	}
}

// TestPanelIndexBijective pins the panel's index math: across every grid
// position, at even and ragged N (517 = 129·4 + 1), every owned tile has the
// block-cyclic dimensions, tiles partition the panel exactly (a distinct
// value written to every element through Tile fills the panel with no
// collision and no gap), LocalRow agrees with the tile a row lives in, and
// the trailing view aliases the same memory in both directions.
func TestPanelIndexBijective(t *testing.T) {
	for _, g := range []grid.Grid{
		{Pr: 2, Pc: 3, Layers: 1, Total: 6},
		{Pr: 3, Pc: 2, Layers: 2, Total: 12},
		{Pr: 1, Pc: 1, Layers: 1, Total: 1},
		{Pr: 5, Pc: 4, Layers: 1, Total: 20}, // more grid rows than edge tiles
	} {
		for _, n := range []int{1, 7, 13, 16, 517} {
			bc := grid.BlockCyclic{G: g, V: 4, N: n}
			for row := 0; row < g.Pr; row++ {
				for col := 0; col < g.Pc; col++ {
					checkPanel(t, bc, row, col)
				}
			}
		}
	}
}

func checkPanel(t *testing.T, bc grid.BlockCyclic, row, col int) {
	t.Helper()
	s := dist.NewStore(bc, row, col, 0, true)
	tis, tjs := bc.LocalTileRows(row, 0), bc.LocalTileCols(col, 0)
	// code(r, c) is unique per global element and never zero.
	code := func(r, c int) float64 { return float64(r*bc.N + c + 1) }
	elems := 0
	for _, ti := range tis {
		for _, tj := range tjs {
			tile := s.Tile(ti, tj)
			if wr, wc := bc.TileDims(ti, tj); tile.Rows != wr || tile.Cols != wc {
				t.Fatalf("n=%d pos (%d,%d): tile (%d,%d) is %dx%d, want %dx%d", bc.N, row, col, ti, tj, tile.Rows, tile.Cols, wr, wc)
			}
			for i := 0; i < tile.Rows; i++ {
				for j := 0; j < tile.Cols; j++ {
					if tile.At(i, j) != 0 {
						t.Fatalf("n=%d pos (%d,%d): tile (%d,%d) overlaps an earlier tile", bc.N, row, col, ti, tj)
					}
					tile.Set(i, j, code(ti*bc.V+i, tj*bc.V+j))
					elems++
				}
			}
		}
	}
	if got := s.Allocated(); got != elems {
		t.Fatalf("n=%d pos (%d,%d): panel holds %d elements, tiles cover %d", bc.N, row, col, got, elems)
	}
	// Read back through the trailing views: local row of global row r, and
	// the columns of the owned tile columns ≥ from laid side by side.
	for fi, from := range tjs {
		view := s.Trailing(from)
		wantCols := 0
		for _, tj := range tjs[fi:] {
			_, w := bc.TileDims(tj, tj)
			wantCols += w
		}
		if view.Cols != wantCols {
			t.Fatalf("n=%d pos (%d,%d): Trailing(%d) is %d wide, want %d", bc.N, row, col, from, view.Cols, wantCols)
		}
		if len(tis) == 0 {
			continue
		}
		for _, r := range bc.RowsInGridRow(row, 0) {
			c := 0
			for _, tj := range tjs[fi:] {
				_, w := bc.TileDims(tj, tj)
				for j := 0; j < w; j++ {
					if got := view.At(s.LocalRow(r), c); got != code(r, tj*bc.V+j) {
						t.Fatalf("n=%d pos (%d,%d): Trailing(%d)(row %d, col %d) = %v, want element (%d,%d)",
							bc.N, row, col, from, r, c, got, r, tj*bc.V+j)
					}
					c++
				}
			}
		}
	}
	// And the other direction: a write through the view lands in the tile.
	if len(tis) > 0 && len(tjs) > 0 {
		ti, tj := tis[len(tis)-1], tjs[len(tjs)-1]
		view := s.Trailing(tj)
		view.Set(s.LocalRow(ti*bc.V), 0, -1)
		if got := s.Tile(ti, tj).At(0, 0); got != -1 {
			t.Fatalf("n=%d pos (%d,%d): write through Trailing(%d) not visible in tile (%d,%d): %v", bc.N, row, col, tj, ti, tj, got)
		}
	}
	// Past the last owned column the trailing view is empty, not a panic.
	if v := s.Trailing(bc.Tiles()); v.Cols != 0 {
		t.Fatalf("Trailing past the last tile column is %d wide", v.Cols)
	}
}

// TestPhantomStoreAllocatesNoPayload pins the volume-mode contract: a
// volume-mode store never materializes, whatever is asked of it, and every
// tile and view it hands out is phantom with the numeric store's shape.
func TestPhantomStoreAllocatesNoPayload(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 19} // 5 tiles: uneven local grids
	s := dist.NewStore(bc, 1, 0, 0, false)
	numeric := dist.NewStore(bc, 1, 0, 0, true)
	for _, ti := range bc.LocalTileRows(1, 0) {
		for _, tj := range bc.LocalTileCols(0, 0) {
			tile, want := s.Tile(ti, tj), numeric.Tile(ti, tj)
			if !tile.Phantom() || tile.Rows != want.Rows || tile.Cols != want.Cols {
				t.Fatalf("tile (%d,%d): phantom=%v %dx%d, want phantom %dx%d", ti, tj, tile.Phantom(), tile.Rows, tile.Cols, want.Rows, want.Cols)
			}
		}
	}
	if v, want := s.Trailing(1), numeric.Trailing(1); !v.Phantom() || v.Rows != want.Rows || v.Cols != want.Cols {
		t.Fatalf("trailing view: phantom=%v %dx%d, want phantom %dx%d", v.Phantom(), v.Rows, v.Cols, want.Rows, want.Cols)
	}
	if s.Allocated() != 0 {
		t.Fatalf("volume-mode store holds %d elements", s.Allocated())
	}
}

func TestNewBufferRespectsPayloadMode(t *testing.T) {
	bc := grid.BlockCyclic{G: grid.Grid{Pr: 1, Pc: 1, Layers: 1, Total: 1}, V: 4, N: 8}
	numeric := dist.NewStore(bc, 0, 0, 0, true)
	if !numeric.Payload() || numeric.NewBuffer(3, 5).Phantom() {
		t.Fatal("numeric store must hand out numeric buffers")
	}
	volume := dist.NewStore(bc, 0, 0, 0, false)
	if volume.Payload() || !volume.NewBuffer(3, 5).Phantom() {
		t.Fatal("volume store must hand out phantom buffers")
	}
	if b := volume.NewBuffer(3, 5); b.Rows != 3 || b.Cols != 5 {
		t.Fatalf("buffer is %dx%d, want 3x5", b.Rows, b.Cols)
	}
}

// stackRows copies the given global rows of a view of s (indexed by local
// row) into a dense stack, in list order, as the 2.5D engines do into their
// step panels before unstacking them back.
func stackRows(s *dist.Store, view *mat.Matrix, rows []int) *mat.Matrix {
	stack := mat.New(len(rows), view.Cols)
	for i, r := range rows {
		copy(stack.Row(i), view.Row(s.LocalRow(r)))
	}
	return stack
}

// TestStackColumnRowsRoundTrip: unstacking a stack of rows of a tile column
// writes each stack row back into its global row in place — the write-back
// the 2.5D engines reduce panel columns through.
func TestStackColumnRowsRoundTrip(t *testing.T) {
	bc := grid.BlockCyclic{G: grid.Grid{Pr: 1, Pc: 1, Layers: 1, Total: 1}, V: 4, N: 10}
	s := dist.NewStore(bc, 0, 0, 0, true)
	for ti := 0; ti < bc.Tiles(); ti++ {
		tile := s.Tile(ti, 2) // the ragged 2-wide edge column
		for i := 0; i < tile.Rows; i++ {
			for j := 0; j < tile.Cols; j++ {
				tile.Set(i, j, float64(100*(ti*4+i)+j))
			}
		}
	}
	rows := []int{9, 1, 6}
	stack := stackRows(s, s.Trailing(2), rows) // tile column 2 is the last
	if stack.Rows != 3 || stack.Cols != 2 {
		t.Fatalf("stack is %dx%d, want 3x2", stack.Rows, stack.Cols)
	}
	for i, r := range rows {
		if stack.At(i, 1) != float64(100*r+1) {
			t.Fatalf("stack row %d holds %v, want row %d", i, stack.At(i, 1), r)
		}
		stack.Set(i, 0, -float64(r))
	}
	s.UnstackColumnRows(2, rows, stack)
	if got := s.Tile(1, 2).At(2, 0); got != -6 {
		t.Fatalf("row 6 not written back: %v", got)
	}
	if got := s.Tile(1, 2).At(3, 0); got != 700 {
		t.Fatalf("row 7 disturbed: %v", got)
	}
	vol := dist.NewStore(bc, 0, 0, 0, false)
	vol.UnstackColumnRows(2, rows, stack)
	if vol.Allocated() != 0 {
		t.Fatal("volume-mode unstack materialized the store")
	}
}

// TestStackTrailingRowsRoundTrip: the trailing view lays the given rows across
// every owned tile column ≥ from side by side, and unstacking writes a stack
// of them back there, nowhere else.
func TestStackTrailingRowsRoundTrip(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 17} // 5 tiles, the last 1 wide
	s := dist.NewStore(bc, 1, 0, 0, true)     // tile rows {1, 3}, tile columns {0, 2, 4}
	for _, ti := range bc.LocalTileRows(1, 0) {
		for _, tj := range bc.LocalTileCols(0, 0) {
			tile := s.Tile(ti, tj)
			for i := 0; i < tile.Rows; i++ {
				for j := 0; j < tile.Cols; j++ {
					tile.Set(i, j, float64(100*(ti*4+i)+tj*4+j))
				}
			}
		}
	}
	rows := []int{13, 4, 15}
	stack := stackRows(s, s.Trailing(1), rows) // tile columns {2, 4}: global columns 8..11, 16
	if stack.Rows != 3 || stack.Cols != 5 {
		t.Fatalf("stack is %dx%d, want 3x5", stack.Rows, stack.Cols)
	}
	for i, r := range rows {
		for j, gc := range []int{8, 9, 10, 11, 16} {
			if got := stack.At(i, j); got != float64(100*r+gc) {
				t.Fatalf("stack(%d,%d) = %v, want element (%d,%d)", i, j, got, r, gc)
			}
		}
	}
	s.UnstackTrailingRows(1, []int{4}, mat.New(1, 5))
	if got := s.Tile(1, 4).At(0, 0); got != 0 {
		t.Fatalf("row 4 not zeroed in the edge tile: %v", got)
	}
	if got := s.Tile(1, 0).At(0, 3); got != 403 {
		t.Fatalf("row 4 disturbed left of the trailing columns: %v", got)
	}
	if got := s.Tile(1, 2).At(1, 0); got != 508 {
		t.Fatalf("row 5 disturbed: %v", got)
	}
	s.UnstackTrailingRows(1, rows, stack)
	if got := s.Tile(1, 4).At(0, 0); got != 416 {
		t.Fatalf("row 4 not restored in the edge tile: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unstacking into a row of another grid row did not panic")
		}
	}()
	s.UnstackTrailingRows(1, []int{0}, mat.New(1, 5)) // row 0 lives in tile row 0, grid row 0
}

func TestOutOfRangeTilePanics(t *testing.T) {
	bc := grid.BlockCyclic{G: grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}, V: 4, N: 16}
	s := dist.NewStore(bc, 0, 0, 0, true)
	for _, tc := range [][2]int{{-2, 0}, {0, -2}, {4, 0}, {0, 4}} {
		func() {
			defer func() {
				if msg, ok := recover().(string); !ok || !strings.Contains(msg, "outside") {
					t.Fatalf("Tile(%d,%d): panic %q, want an out-of-range panic", tc[0], tc[1], msg)
				}
			}()
			s.Tile(tc[0], tc[1])
		}()
	}
}

func TestForeignTilePanics(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 16}
	s := dist.NewStore(bc, 0, 0, 0, true)
	if s.Owns(0, 1) {
		t.Fatal("store (0,0) must not own tile column 1")
	}
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("accessing a foreign tile did not panic")
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "belongs to") {
			t.Fatalf("unexpected panic: %v", rec)
		}
	}()
	s.Tile(0, 1) // owned by grid position (0,1)
}

// A collective invoked with a grid other than the store's must panic rather
// than silently routing tiles to the wrong ranks.
func TestGridMismatchPanics(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 8}
	other := grid.Grid{Pr: 4, Pc: 1, Layers: 1, Total: 4}
	_, err := smpi.Exec(context.Background(), smpi.Config{P: 1, Payload: true}, func(c *smpi.Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("Scatter with a mismatched grid did not panic")
			}
		}()
		dist.Scatter(c, 0, nil, other, dist.NewStore(bc, 0, 0, 0, true))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Non-zero replication layers start as zero accumulators: a gather after
// layer-1 writes must see only what layer 0 holds, and the layer-1 store's
// tiles read zero until written.
func TestNonZeroLayerIsZeroAccumulator(t *testing.T) {
	g := grid.Grid{Pr: 1, Pc: 1, Layers: 2, Total: 2}
	bc := grid.BlockCyclic{G: g, V: 4, N: 4}
	s := dist.NewStore(bc, 0, 0, 1, true)
	if got := s.Tile(0, 0).At(2, 2); got != 0 {
		t.Fatalf("accumulator reads %v, want 0", got)
	}
	s.Tile(0, 0).Add(2, 2, 7)
	if got := s.Tile(0, 0).At(2, 2); got != 7 {
		t.Fatalf("accumulator reads %v after Add, want 7", got)
	}
}

// A panel leaves its store once, for good: after Gather — which hands a
// sender's panel over as the wire buffer and returns the root's to the pool —
// and after Release, every Tile, Trailing and LocalRows call panics instead of
// lazily building a fresh zeroed panel that would read zeros where the data
// was. Both payload modes, so a schedule bug shows in a volume replay too.
func TestSpentStorePanics(t *testing.T) {
	g := grid.Grid{Pr: 1, Pc: 2, Layers: 1, Total: 2}
	bc := grid.BlockCyclic{G: g, V: 4, N: 8}
	requireSpent := func(t *testing.T, s *dist.Store, col int, what string) {
		t.Helper()
		for name, use := range map[string]func(){
			"Tile":      func() { s.Tile(0, col) }, // a tile the store owns
			"Trailing":  func() { s.Trailing(0) },
			"LocalRows": func() { s.LocalRows([]int{0}) },
		} {
			func() {
				defer func() {
					if msg, ok := recover().(string); !ok || !strings.Contains(msg, "used after its panel") {
						t.Errorf("%s: %s on a spent store: panic %v, want the lifecycle panic", what, name, msg)
					}
				}()
				use()
			}()
		}
	}
	for _, payload := range []bool{true, false} {
		t.Run(modeName(payload), func(t *testing.T) {
			s := dist.NewStore(bc, 0, 0, 0, payload)
			s.Tile(0, 0).Set(1, 1, 3)
			s.Release()
			requireSpent(t, s, 0, "Release")

			stores := make([]*dist.Store, g.Total)
			_, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: payload}, func(c *smpi.Comm) error {
				s := dist.NewStore(bc, 0, c.Rank(), 0, payload)
				stores[c.Rank()] = s
				var a *mat.Matrix
				if c.Rank() == 0 && payload {
					a = mat.Random(bc.N, bc.N, 5)
				}
				dist.Scatter(c, 0, a, g, s)
				dist.Gather(c, 0, a, g, s)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, s := range stores {
				if s.Allocated() != 0 {
					t.Errorf("rank %d: the store still holds %d elements after Gather", r, s.Allocated())
				}
				requireSpent(t, s, r, fmt.Sprintf("Gather, rank %d", r))
			}
		})
	}
}
