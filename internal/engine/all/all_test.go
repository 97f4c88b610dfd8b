package all

import (
	"context"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/mat"
	"repro/internal/smpi"
	"repro/internal/testutil"
)

// TestPermAtRankZeroOnly: in a volume replay of every registered engine, world
// rank 0 returns the factors' phantom and the pivot permutation (none for
// Cholesky) and every other rank returns neither, so only rank 0 keeps an
// N-length array.
func TestPermAtRankZeroOnly(t *testing.T) {
	const n, p = 96, 8
	for _, name := range engine.Names() {
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		lus, perms := make([]*mat.Matrix, p), make([][]int, p)
		_, err = smpi.Exec(context.Background(), smpi.Config{P: p}, func(c *smpi.Comm) error {
			var err error
			lus[c.Rank()], perms[c.Rank()], err = eng.Run(c, nil, n, engine.Config{Ranks: p})
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
