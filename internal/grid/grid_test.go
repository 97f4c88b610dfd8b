package grid

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestCoordsRankRoundTrip(t *testing.T) {
	g := Grid{Pr: 3, Pc: 4, Layers: 2, Total: 24}
	seen := map[int]bool{}
	for l := 0; l < 2; l++ {
		for r := 0; r < 3; r++ {
			for c := 0; c < 4; c++ {
				rk := g.Rank(r, c, l)
				if seen[rk] {
					t.Fatalf("duplicate rank %d", rk)
				}
				seen[rk] = true
				rr, cc, ll := g.Coords(rk)
				if rr != r || cc != c || ll != l {
					t.Fatalf("round trip (%d,%d,%d) -> %d -> (%d,%d,%d)", r, c, l, rk, rr, cc, ll)
				}
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("covered %d ranks", len(seen))
	}
}

func TestCommMemberships(t *testing.T) {
	g := Grid{Pr: 2, Pc: 3, Layers: 2, Total: 12}
	row := g.RowComm(1, 0)
	if len(row) != 3 || row[0] != g.Rank(1, 0, 0) || row[2] != g.Rank(1, 2, 0) {
		t.Fatalf("row comm %v", row)
	}
	col := g.ColComm(2, 1)
	if len(col) != 2 || col[1] != g.Rank(1, 2, 1) {
		t.Fatalf("col comm %v", col)
	}
	fib := g.FiberComm(1, 2)
	if len(fib) != 2 || fib[0] != g.Rank(1, 2, 0) || fib[1] != g.Rank(1, 2, 1) {
		t.Fatalf("fiber comm %v", fib)
	}
	layer := g.LayerComm(1)
	if len(layer) != 6 || layer[0] != 6 {
		t.Fatalf("layer comm %v", layer)
	}
	if got := g.ActiveComm(); len(got) != 12 {
		t.Fatalf("active %v", got)
	}
}

func TestSquare2D(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 4: {2, 2}, 6: {2, 3}, 12: {3, 4}, 64: {8, 8},
		7:    {1, 7}, // prime: degenerate 1×7, the "bad grid" case of Fig 6a
		1024: {32, 32},
	}
	for p, want := range cases {
		g := Square2D(p)
		if g.Pr != want[0] || g.Pc != want[1] || g.Used() != p {
			t.Fatalf("Square2D(%d) = %dx%d", p, g.Pr, g.Pc)
		}
	}
}

func TestBlockCyclicOwnership(t *testing.T) {
	b := BlockCyclic{G: Grid{Pr: 2, Pc: 3, Layers: 1, Total: 6}, V: 4, N: 20}
	if b.Tiles() != 5 {
		t.Fatalf("tiles %d", b.Tiles())
	}
	if b.OwnerRow(3) != 1 || b.OwnerCol(4) != 1 {
		t.Fatal("cyclic owners wrong")
	}
	if b.Owner(0, 0, 0) != 0 {
		t.Fatal("tile (0,0) not on rank 0")
	}
	r, c := b.TileDims(4, 4)
	if r != 4 || c != 4 {
		t.Fatalf("edge tile %dx%d", r, c)
	}
	b2 := BlockCyclic{G: b.G, V: 6, N: 20}
	r, c = b2.TileDims(3, 3)
	if r != 2 || c != 2 {
		t.Fatalf("ragged edge tile %dx%d", r, c)
	}
}

func TestLocalTileRows(t *testing.T) {
	b := BlockCyclic{G: Grid{Pr: 2, Pc: 2, Layers: 1, Total: 4}, V: 2, N: 12}
	rows := b.LocalTileRows(1, 2)
	want := []int{3, 5}
	if len(rows) != len(want) {
		t.Fatalf("rows %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows %v want %v", rows, want)
		}
	}
	cols := b.LocalTileCols(0, 0)
	if len(cols) != 3 || cols[0] != 0 || cols[2] != 4 {
		t.Fatalf("cols %v", cols)
	}
}

// TestRowsInGridRow checks the tile-stepping row lister against the
// definition (row r belongs to grid row (r/V) mod Pr) at ragged sizes, cut
// points inside tiles, and grid rows that own nothing past the cut.
func TestRowsInGridRow(t *testing.T) {
	for _, tc := range []struct{ n, v, pr int }{{12, 2, 2}, {45, 4, 3}, {33, 16, 2}, {7, 8, 3}, {64, 8, 1}} {
		b := BlockCyclic{G: Grid{Pr: tc.pr, Pc: 1, Layers: 1, Total: tc.pr}, V: tc.v, N: tc.n}
		for gr := 0; gr < tc.pr; gr++ {
			for lo := 0; lo <= tc.n; lo++ {
				var want []int
				for r := lo; r < tc.n; r++ {
					if (r/tc.v)%tc.pr == gr {
						want = append(want, r)
					}
				}
				if got := b.RowsInGridRow(gr, lo); !slices.Equal(got, want) {
					t.Fatalf("n=%d v=%d pr=%d gr=%d lo=%d: got %v want %v", tc.n, tc.v, tc.pr, gr, lo, got, want)
				}
			}
		}
	}
}

func TestOptimize25DPrefersFullUse(t *testing.T) {
	// Cost: prefer more layers strongly (mimics 2.5D benefit).
	cost := func(g Grid) float64 { return 1.0 / float64(g.Layers) / float64(g.Used()) }
	g := Optimize25D(8, 2, 0.5, cost)
	if g.Layers != 2 || g.Used() != 8 {
		t.Fatalf("got %dx%dx%d used=%d", g.Pr, g.Pc, g.Layers, g.Used())
	}
}

func TestOptimize25DDisablesRanksWhenBeneficial(t *testing.T) {
	// p=7 (prime): a 1×7 grid is terrible under a "squareness" cost;
	// optimization should fall back to 2×3 or 2×2, disabling ranks.
	cost := func(g Grid) float64 {
		return float64(abs(g.Pc-g.Pr)+1) / float64(g.Used())
	}
	g := Optimize25D(7, 1, 0.5, cost)
	if g.Pr == 1 && g.Pc == 7 {
		t.Fatalf("did not avoid degenerate grid: %+v", g)
	}
	if g.Used() > 7 {
		t.Fatalf("invalid grid %+v", g)
	}
}

func TestOptimize25DRespectsWasteBound(t *testing.T) {
	cost := func(g Grid) float64 { return 1 } // all equal: must keep most ranks
	g := Optimize25D(12, 3, 0.1, cost)
	if g.Used() < 11 {
		t.Fatalf("wasted too many ranks: %+v", g)
	}
}

func TestMaxReplication(t *testing.T) {
	// M = N²/P^{2/3} gives c = P^{1/3} exactly.
	n, p := 4096, 64
	m := float64(n) * float64(n) / 16 // P^{2/3}=16
	if c := MaxReplication(p, m, n); c != 4 {
		t.Fatalf("c=%d want 4", c)
	}
	// Tiny memory → c clamps to 1.
	if c := MaxReplication(p, 10, n); c != 1 {
		t.Fatalf("c=%d want 1", c)
	}
	// Huge memory → clamps to P^{1/3}.
	if c := MaxReplication(27, 1e12, 8); c != 3 {
		t.Fatalf("c=%d want 3", c)
	}
}

// Property: Coords/Rank are mutually inverse for random valid grids.
func TestQuickCoordsInverse(t *testing.T) {
	f := func(pr8, pc8, l8, pick uint16) bool {
		pr, pc, l := int(pr8%5)+1, int(pc8%5)+1, int(l8%3)+1
		g := Grid{Pr: pr, Pc: pc, Layers: l, Total: pr * pc * l}
		rk := int(pick) % g.Used()
		r, c, lay := g.Coords(rk)
		return g.Rank(r, c, lay) == rk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every tile has exactly one owner per layer and owners partition
// the tile space.
func TestQuickBlockCyclicPartition(t *testing.T) {
	f := func(pr8, pc8, v8, n8 uint8) bool {
		pr, pc := int(pr8%4)+1, int(pc8%4)+1
		v, n := int(v8%5)+1, int(n8%40)+1
		b := BlockCyclic{G: Grid{Pr: pr, Pc: pc, Layers: 1, Total: pr * pc}, V: v, N: n}
		count := 0
		for row := 0; row < pr; row++ {
			for _, ti := range b.LocalTileRows(row, 0) {
				if b.OwnerRow(ti) != row {
					return false
				}
				count++
			}
		}
		return count == b.Tiles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The 2.5D engines (COnfLUX, CANDMC) take part only in the panel broadcasts of
// their own grid row and column. That is every group a rank can be in because
// every rank of a row (column) group has that grid row (column) — for any
// owner and assigned layer, with the root listed first and once.
func TestPanelGroupsStayInOwnRowAndColumn(t *testing.T) {
	for _, g := range []Grid{{Pr: 2, Pc: 3, Layers: 2, Total: 12}, {Pr: 4, Pc: 4, Layers: 4, Total: 64}, {Pr: 3, Pc: 4, Layers: 1, Total: 12}, {Pr: 5, Pc: 6, Layers: 2, Total: 64}} {
		for layer := 0; layer < g.Layers; layer++ {
			for x := 0; x < g.Pr; x++ {
				for y := 0; y < g.Pc; y++ {
					rowGroup, colGroup := g.PanelRowGroup(x, y, layer), g.PanelColGroup(y, x, layer)
					if rowGroup[0] != g.Rank(x, y, 0) || colGroup[0] != g.Rank(x, y, 0) {
						t.Fatalf("%+v: groups of owner (%d,%d) rooted at %d and %d", g, x, y, rowGroup[0], colGroup[0])
					}
					want := g.Pc + 1
					if layer == 0 {
						want = g.Pc
					}
					if len(rowGroup) != want || len(colGroup) != want-g.Pc+g.Pr {
						t.Fatalf("%+v layer %d: group sizes %d and %d", g, layer, len(rowGroup), len(colGroup))
					}
					for _, r := range rowGroup {
						if row, _, _ := g.Coords(r); row != x {
							t.Fatalf("%+v: rank %d of grid row %d in a row group of row %d", g, r, row, x)
						}
					}
					for _, r := range colGroup {
						if _, col, _ := g.Coords(r); col != y {
							t.Fatalf("%+v: rank %d of grid column %d in a column group of column %d", g, r, col, y)
						}
					}
				}
			}
		}
	}
}
