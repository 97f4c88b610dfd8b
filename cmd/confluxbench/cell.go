package main

// -cell mode: run a single Table-2 cell and print rows as they complete
// (used by the EXPERIMENTS.md pipeline so paper-scale runs stream results).

import (
	"context"
	"fmt"

	"repro/internal/bench"
)

func runCell(ctx context.Context, h bench.Harness, n, p int) {
	for _, row := range h.TableCell(ctx, n, p) {
		fmt.Print(row)
	}
}
