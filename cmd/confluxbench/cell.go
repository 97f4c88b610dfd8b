package main

// -exp cell: measure a single (N, P) cell of Table 2, all four engines, and
// print it in the table2 layout once every engine is done (for paper-scale
// runs that take one cell per invocation).

import (
	"context"
	"os"

	"repro/internal/bench"
)

func runCell(ctx context.Context, h bench.Harness, n, p int) error {
	res, err := h.RunTable2(ctx, []int{n}, []int{p})
	if err != nil {
		return err
	}
	res.Render(os.Stdout)
	return nil
}
