// Package all registers every in-tree factorization engine by importing
// the engine packages for their side effects. The public API and the bench
// harness import it blank; anything else that dispatches through the
// registry (tools, future services) can do the same without enumerating
// engine packages.
package all

import (
	_ "repro/internal/conflux" // registers COnfLUX, CANDMC and Cholesky
	_ "repro/internal/lu2d"    // registers LibSci and SLATE
)
