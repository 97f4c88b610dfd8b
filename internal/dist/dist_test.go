package dist_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/trace"
)

// roundTrip scatters a (random in payload mode, nil in volume mode) matrix
// from rank 0 across the layer-0 stores of g and gathers it back, returning
// the volume report and the gathered matrix. Non-zero layers and disabled
// ranks sit out, exactly as the engines use the collectives.
func roundTrip(t *testing.T, g grid.Grid, n, v int, payload bool) (*trace.Report, *mat.Matrix) {
	t.Helper()
	bc := grid.BlockCyclic{G: g, V: v, N: n}
	var src, got *mat.Matrix
	if payload {
		src = mat.Random(n, n, 0xD157)
	}
	rep, err := smpi.Exec(context.Background(), smpi.Config{P: g.Total, Payload: payload}, func(c *smpi.Comm) error {
		if c.Rank() >= g.Used() {
			return nil
		}
		row, col, layer := g.Coords(c.Rank())
		s := dist.NewStore(bc, row, col, layer, c.Payload())
		if layer != 0 {
			return nil
		}
		var a *mat.Matrix
		if c.Rank() == 0 {
			a = src
		}
		c.SetPhase("caller-phase")
		dist.Scatter(c, 0, a, g, s)
		if ph := c.Phase(); ph != "caller-phase" {
			t.Errorf("rank %d: Scatter left phase %q, want caller's restored", c.Rank(), ph)
		}
		if !payload {
			// Volume mode must allocate no payload: every tile is phantom.
			for _, ti := range bc.LocalTileRows(row, 0) {
				for _, tj := range bc.LocalTileCols(col, 0) {
					if !s.Tile(ti, tj).Phantom() {
						t.Errorf("rank %d: tile (%d,%d) carries payload in volume mode", c.Rank(), ti, tj)
					}
				}
			}
		}
		var dst *mat.Matrix
		if c.Rank() == 0 {
			if payload {
				dst = mat.New(n, n)
			} else {
				dst = mat.NewPhantom(n, n)
			}
		}
		dist.Gather(c, 0, dst, g, s)
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
	if payload {
		if got == nil {
			t.Fatal("no matrix gathered at rank 0")
		}
		if d := mat.MaxAbsDiff(src, got); d != 0 {
			t.Fatalf("round trip not exact: max |diff| = %v", d)
		}
	}
	return rep, got
}

// housekeepingBytes returns the bytes Scatter (and, symmetrically, Gather)
// must meter: every tile whose layer-0 owner is not rank 0, at 8 bytes per
// element.
func housekeepingBytes(bc grid.BlockCyclic, g grid.Grid) int64 {
	var total int64
	nt := bc.Tiles()
	for ti := 0; ti < nt; ti++ {
		for tj := 0; tj < nt; tj++ {
			if g.Rank(bc.OwnerRow(ti), bc.OwnerCol(tj), 0) == 0 {
				continue
			}
			r, w := bc.TileDims(ti, tj)
			total += int64(r*w) * trace.BytesPerElement
		}
	}
	return total
}

// The property: Scatter→Gather is the identity at rank 0 and meters exactly
// the off-root tile bytes under PhaseLayout/PhaseCollect, across 2D grids,
// 2.5D grids (Layers > 1), grids with disabled ranks, uneven edge tiles, and
// both payload modes.
func TestScatterGatherRoundTrip(t *testing.T) {
	cases := []struct {
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
	}
	for _, tc := range cases {
		for _, payload := range []bool{true, false} {
			name := tc.name + "/volume"
			if payload {
				name = tc.name + "/numeric"
			}
			t.Run(name, func(t *testing.T) {
				rep, _ := roundTrip(t, tc.g, tc.n, tc.v, payload)
				bc := grid.BlockCyclic{G: tc.g, V: tc.v, N: tc.n}
				want := housekeepingBytes(bc, tc.g)
				if got := rep.ByPhase[trace.PhaseLayout]; got != want {
					t.Errorf("layout bytes = %d, want %d", got, want)
				}
				if got := rep.ByPhase[trace.PhaseCollect]; got != want {
					t.Errorf("collect bytes = %d, want %d", got, want)
				}
				if tc.g.Used() > 1 && bc.Tiles() > 1 && want == 0 {
					t.Fatalf("degenerate case: no off-root tiles to meter")
				}
			})
		}
	}
}

// Volume mode and numeric mode must meter identical housekeeping bytes — the
// central phantom-payload invariant, at the dist layer.
func TestVolumeNumericParity(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 3, Layers: 2, Total: 12}
	numeric, _ := roundTrip(t, g, 19, 4, true)
	volume, _ := roundTrip(t, g, 19, 4, false)
	for _, ph := range []string{trace.PhaseLayout, trace.PhaseCollect} {
		if numeric.ByPhase[ph] != volume.ByPhase[ph] {
			t.Errorf("%s: numeric %d bytes vs volume %d", ph, numeric.ByPhase[ph], volume.ByPhase[ph])
		}
		if volume.ByPhase[ph] == 0 {
			t.Errorf("%s: volume mode metered zero bytes", ph)
		}
	}
}

func TestTileLazyAllocation(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 2, Total: 8}
	bc := grid.BlockCyclic{G: g, V: 4, N: 13}
	s := dist.NewStore(bc, 0, 1, 1, true)
	if s.Allocated() != 0 {
		t.Fatalf("fresh store allocated %d tiles", s.Allocated())
	}
	tile := s.Tile(0, 1)
	if r, w := tile.Rows, tile.Cols; r != 4 || w != 4 {
		t.Fatalf("tile (0,1) is %dx%d, want 4x4", r, w)
	}
	// Edge tile: column 3 is cut short by N=13 (13 - 3·4 = 1).
	edge := s.Tile(2, 3)
	if r, w := edge.Rows, edge.Cols; r != 4 || w != 1 {
		t.Fatalf("edge tile (2,3) is %dx%d, want 4x1", r, w)
	}
	if got := s.Allocated(); got != 2 {
		t.Fatalf("allocated %d tiles, want 2", got)
	}
	if s.Tile(0, 1) != tile {
		t.Fatal("second access did not return the same tile")
	}
	if tile.At(1, 2) != 0 {
		t.Fatal("lazily allocated tile is not zeroed")
	}
	tile.Set(1, 2, 5)
	if s.Tile(0, 1).At(1, 2) != 5 {
		t.Fatal("tile writes not persistent")
	}
}

// TestFlatStoreIndexBijective pins the flat-slice index math of the store:
// across every grid position, materializing all owned tiles yields exactly
// ceil-distributed counts, pairwise-distinct tile objects with the right
// dimensions, and stable identity on re-access. Any collision in the
// (ti/Pr, tj/Pc) flattening would surface here as shared or misshapen tiles.
func TestFlatStoreIndexBijective(t *testing.T) {
	for _, g := range []grid.Grid{
		{Pr: 2, Pc: 3, Layers: 1, Total: 6},
		{Pr: 3, Pc: 2, Layers: 2, Total: 12},
		{Pr: 1, Pc: 1, Layers: 1, Total: 1},
		{Pr: 5, Pc: 4, Layers: 1, Total: 20}, // more grid rows than edge tiles
	} {
		for _, n := range []int{1, 7, 13, 16} {
			bc := grid.BlockCyclic{G: g, V: 4, N: n}
			for row := 0; row < g.Pr; row++ {
				for col := 0; col < g.Pc; col++ {
					s := dist.NewStore(bc, row, col, 0, true)
					seen := map[*mat.Matrix]bool{}
					count := 0
					for _, ti := range bc.LocalTileRows(row, 0) {
						for _, tj := range bc.LocalTileCols(col, 0) {
							tile := s.Tile(ti, tj)
							if seen[tile] {
								t.Fatalf("grid %+v n=%d pos (%d,%d): tile (%d,%d) aliases another tile", g, n, row, col, ti, tj)
							}
							seen[tile] = true
							wr, wc := bc.TileDims(ti, tj)
							if tile.Rows != wr || tile.Cols != wc {
								t.Fatalf("tile (%d,%d) is %dx%d, want %dx%d", ti, tj, tile.Rows, tile.Cols, wr, wc)
							}
							if s.Tile(ti, tj) != tile {
								t.Fatalf("tile (%d,%d) identity not stable", ti, tj)
							}
							count++
						}
					}
					if got := s.Allocated(); got != count {
						t.Fatalf("grid %+v n=%d pos (%d,%d): Allocated() = %d, want %d", g, n, row, col, got, count)
					}
				}
			}
		}
	}
}

// TestPhantomStoreAllocatesNoPayload re-pins the lazy/volume-mode contract
// after the flat-slice change: a fresh volume-mode store reports zero
// materialized tiles, materialization is per-tile (not whole-grid), and no
// tile it ever hands out carries backing data.
func TestPhantomStoreAllocatesNoPayload(t *testing.T) {
	g := grid.Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}
	bc := grid.BlockCyclic{G: g, V: 4, N: 19} // 5 tiles: uneven local grids
	s := dist.NewStore(bc, 1, 0, 0, false)
	if s.Allocated() != 0 {
		t.Fatalf("fresh store allocated %d tiles", s.Allocated())
	}
	first := s.Tile(1, 0)
	if !first.Phantom() {
		t.Fatal("volume-mode tile carries payload")
	}
	if s.Allocated() != 1 {
		t.Fatalf("one access materialized %d tiles, want exactly 1 (lazy per tile)", s.Allocated())
	}
	for _, ti := range bc.LocalTileRows(1, 0) {
		for _, tj := range bc.LocalTileCols(0, 0) {
			if !s.Tile(ti, tj).Phantom() {
				t.Fatalf("tile (%d,%d) carries payload in volume mode", ti, tj)
			}
		}
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

// TestStackColumnRowsRoundTrip: stacking rows of a tile column copies them
// out in list order, and unstacking writes them back in place — the pair
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
	stack := s.StackColumnRows(2, rows)
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
	if st := vol.StackColumnRows(2, rows); !st.Phantom() || st.Rows != 3 || st.Cols != 2 {
		t.Fatal("volume-mode stack must be a 3x2 phantom")
	}
	vol.UnstackColumnRows(2, rows, stack)
	if vol.Allocated() != 0 {
		t.Fatal("volume-mode unstack touched tiles")
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
