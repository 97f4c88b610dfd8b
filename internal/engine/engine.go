// Package engine is the registry the public API dispatches factorization
// engines through. Each engine package (internal/conflux, internal/lu2d,
// internal/cholesky) self-registers its adapters in its init function, so
// adding an engine never touches the API layer: implement the
// Engine interface, call Register, and the algorithm is reachable from
// conflux.New(conflux.WithAlgorithm(...)), the bench harness, and the CLI.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/mat"
	"repro/internal/smpi"
)

// ErrUnknown is wrapped by Lookup for algorithm names with no registered
// engine. The public API re-surfaces it as conflux.ErrUnknownAlgorithm.
var ErrUnknown = errors.New("no registered engine")

// Config carries the per-run parameters an engine derives its internal
// options (grid shape, replication, blocking) from.
type Config struct {
	// Ranks is the simulated world size P the engine runs on.
	Ranks int
	// Memory is the per-rank fast memory in elements; <= 0 selects the
	// paper's maximum-replication setting M = N²/P^(2/3).
	Memory float64
	// NB is the block size for engines with a user-specified blocking
	// parameter (LibSci); 0 selects the engine's default.
	NB int
}

// MemoryFor resolves the effective per-rank memory for an n×n problem.
func (cfg Config) MemoryFor(n int) float64 {
	if cfg.Memory > 0 {
		return cfg.Memory
	}
	return costmodel.MaxMemoryParams(n, cfg.Ranks).M
}

// Engine is one registered factorization implementation. Run executes the
// engine's schedule on communicator c for an n×n input; in is consulted at
// world rank 0 only and is nil in volume mode. It returns the combined
// factors gathered at rank 0 (nil on other ranks and in volume mode) and
// the pivot permutation perm with in[perm,:] = L·U. Engines without a pivot
// permutation (Cholesky) return a nil perm.
type Engine interface {
	Name() costmodel.Algorithm
	Run(c *smpi.Comm, in *mat.Matrix, n int, cfg Config) (*mat.Matrix, []int, error)
}

// GridDescriber is optionally implemented by engines that can describe the
// processor grid they would choose for a configuration (the bench harness
// prints it next to each measurement).
type GridDescriber interface {
	GridDesc(n int, cfg Config) string
}

var (
	mu       sync.RWMutex
	registry = map[costmodel.Algorithm]Engine{}
)

// Register adds an engine to the registry. It panics on a duplicate name:
// two implementations claiming one algorithm is a programming error, not a
// runtime condition.
func Register(e Engine) {
	mu.Lock()
	defer mu.Unlock()
	name := e.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry[name] = e
}

// Lookup returns the engine registered under name, or an error wrapping
// ErrUnknown listing the registered set.
func Lookup(name costmodel.Algorithm) (Engine, error) {
	mu.RLock()
	defer mu.RUnlock()
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w for algorithm %q (registered: %v)", ErrUnknown, name, namesLocked())
	}
	return e, nil
}

// Names returns the registered algorithm names in sorted order.
func Names() []costmodel.Algorithm {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []costmodel.Algorithm {
	out := make([]costmodel.Algorithm, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GridDesc returns e's grid description when it implements GridDescriber,
// and "" otherwise.
func GridDesc(e Engine, n int, cfg Config) string {
	if d, ok := e.(GridDescriber); ok {
		return d.GridDesc(n, cfg)
	}
	return ""
}
