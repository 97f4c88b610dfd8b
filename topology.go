package conflux

import (
	"fmt"

	"repro/internal/topo"
)

// Topology is the composable network-topology specification a Session
// simulates under (see internal/topo): a model family ("flat", "hier",
// "dragonfly", "fattree"), its shape parameters, per-tier α-β machines,
// and an optional FIFO ingress-contention layer. The zero Topology means
// "no topology" — the plain α-β Machine path, byte-for-byte. All leaves
// are scalars, so the value participates in Config and the planner cache
// key like any other machine parameter.
type Topology = topo.Spec

// FaultPlan is a first-class fault/straggler scenario layered over the
// topology: degraded links (per-node-pair cost multipliers) and straggler
// ranks (per-rank slowdown factors). Its makespan impact and critical-path
// re-attribution read directly off the ordinary volume/time reports.
type FaultPlan = topo.FaultPlan

// LinkFault degrades routes between two nodes; see topo.LinkFault.
type LinkFault = topo.LinkFault

// Straggler slows one rank; see topo.Straggler.
type Straggler = topo.Straggler

// TopologyPresets returns the named topology presets WithTopologyPreset
// accepts, in sorted order.
func TopologyPresets() []string { return topo.Presets() }

// TopologyPreset resolves a preset name ("flat", "hier", "hier-contended",
// "dragonfly", "dragonfly-contended", "fattree") to its full specification.
func TopologyPreset(name string) (Topology, error) { return topo.PresetSpec(name) }

// WithTopology runs every simulation of the session under the given
// network topology instead of the flat α-β machine. The flat preset (and
// the zero Topology) is pinned bit-identical to plain WithMachine; the
// hierarchical, dragonfly, fat-tree, and contended models stay
// deterministic across executors and event-window widths exactly like the
// flat machine (DESIGN.md §14), so results remain cacheable by key.
func WithTopology(t Topology) Option {
	return func(c *Config) error {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("conflux: WithTopology: %w", err)
		}
		c.Topology = t
		return nil
	}
}

// WithTopologyPreset is WithTopology(TopologyPreset(name)) with the
// lookup error surfaced through New.
func WithTopologyPreset(name string) Option {
	return func(c *Config) error {
		t, err := topo.PresetSpec(name)
		if err != nil {
			return fmt.Errorf("conflux: WithTopologyPreset: %w", err)
		}
		c.Topology = t
		return nil
	}
}

// WithFaults injects a fault/straggler scenario into every simulation of
// the session: link degradation factors and per-rank slowdowns applied on
// top of the configured topology (or on the flat view of the session
// machine when no topology is set).
func WithFaults(f FaultPlan) Option {
	return func(c *Config) error {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("conflux: WithFaults: %w", err)
		}
		c.Faults = f.Canonical()
		return nil
	}
}
