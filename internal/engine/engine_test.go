package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
)

// TestNamesPinned: the table lists the paper's four LU engines and
// Cholesky, in sorted order, and every name looks up its own engine.
func TestNamesPinned(t *testing.T) {
	want := []costmodel.Algorithm{"CANDMC", "COnfLUX", "Cholesky", "LibSci", "SLATE"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	for _, name := range want {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Fatalf("Lookup(%q) returned %q", name, e.Name())
		}
	}
}

func TestLookupUnknownWrapsErrUnknown(t *testing.T) {
	_, err := Lookup("HPL")
	if err == nil || !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
	const want = `no registered engine for algorithm "HPL" (registered: [CANDMC COnfLUX Cholesky LibSci SLATE])`
	if err.Error() != want {
		t.Fatalf("err = %q\nwant  %q", err, want)
	}
}

// TestGridDescPinned holds every engine's grid string to its recorded bytes
// at shapes that exercise disabled ranks (COnfLUX at P=7 and P=64), a
// ragged N, an explicit memory and paper-scale P.
func TestGridDescPinned(t *testing.T) {
	shapes := []struct {
		n, p int
		mem  float64
	}{{96, 8, 0}, {517, 12, 0}, {1024, 256, 0}, {256, 7, 0}, {128, 16, 4096}, {4096, 64, 0}}
	want := map[costmodel.Algorithm][]string{
		"CANDMC":   {"2x2x2", "2x3x2", "8x8x4", "1x7x1", "2x4x2", "4x4x4"},
		"COnfLUX":  {"2x2x2 (8 used)", "3x4x1 (12 used)", "8x8x4 (256 used)", "2x3x1 (6 used)", "4x4x1 (16 used)", "5x6x2 (60 used)"},
		"Cholesky": {"2x2x2", "3x3x1", "8x8x4", "2x2x1", "4x4x1", "4x4x4"},
		"LibSci":   {"2x4", "3x4", "16x16", "1x7", "4x4", "8x8"},
		"SLATE":    {"2x4", "3x4", "16x16", "1x7", "4x4", "8x8"},
	}
	for _, e := range table {
		for i, s := range shapes {
			got := e.GridDesc(s.n, Config{Ranks: s.p, Memory: s.mem, NB: DefaultLibSciNB})
			if w := want[e.Name()][i]; got != w {
				t.Errorf("%s N=%d P=%d M=%v: grid %q, want %q", e.Name(), s.n, s.p, s.mem, got, w)
			}
		}
	}
}

func TestConfigMemoryFor(t *testing.T) {
	if m := (Config{Ranks: 8, Memory: 123}).MemoryFor(64); m != 123 {
		t.Fatalf("explicit memory not honored: %v", m)
	}
	want := costmodel.MaxMemoryParams(64, 8).M
	if m := (Config{Ranks: 8}).MemoryFor(64); m != want {
		t.Fatalf("default memory %v, want max-replication %v", m, want)
	}
}

// TestPermAtRankZeroOnly: in a volume replay of every engine, world rank 0
// returns the factors' phantom and the pivot permutation (none for Cholesky)
// and every other rank returns neither, so only rank 0 keeps an N-length
// array.
func TestPermAtRankZeroOnly(t *testing.T) {
	const n, p = 96, 8
	for _, eng := range table {
		name := eng.Name()
		lus, perms := make([]*mat.Matrix, p), make([][]int, p)
		_, err := smpi.Exec(context.Background(), smpi.Config{P: p}, func(c *smpi.Comm) error {
			var err error
			lus[c.Rank()], perms[c.Rank()], err = eng.Run(c, nil, n, Config{Ranks: p})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lus[0] == nil {
			t.Errorf("%s: rank 0 returned no factors", name)
		}
		if name == costmodel.Cholesky {
			if perms[0] != nil {
				t.Errorf("%s: rank 0 returned a perm", name)
			}
		} else if err := testutil.IsPermutation(perms[0], n); err != nil {
			t.Errorf("%s: rank 0's perm: %v", name, err)
		}
		for r := 1; r < p; r++ {
			if lus[r] != nil || perms[r] != nil {
				t.Errorf("%s: rank %d returned factors %v, a perm of %d", name, r, lus[r] != nil, len(perms[r]))
			}
		}
	}
}
