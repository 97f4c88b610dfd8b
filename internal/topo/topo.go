// Package topo models the network under the simulated machine: composable
// topologies that map a delivery (from, to, bytes) to per-endpoint cost,
// replacing the flat α-β trace.Machine behind the one metering point all
// five engines and both executors share (trace.Timeline). The paper's
// measurements ran on Piz Daint — a Cray Aries dragonfly with very
// different intra-node vs inter-node latency/bandwidth and shared links
// that contend — while its §7.4 cost model is flat; this package is how
// the repo asks what the 2.5D replication tradeoff (Fig. 6) looks like
// when the network is not.
//
// Four model families, all implementing trace.Topology:
//
//   - flat: exactly today's α-β machine, pinned bit-identical by the
//     root-level parity suite.
//   - hier: ranks-per-node with separate intra-node / inter-node α-β
//     pairs.
//   - dragonfly: three-tier routes (node, group, global) — per-hop α
//     summed along the route, min-bandwidth (max β) along the route.
//   - fattree: distance by levels to the lowest common ancestor switch,
//     with a tapered (oversubscribed) core crossing.
//
// Contention (Spec.Contention = 1) layers FIFO ingress-link occupancy on
// any family: a transfer crossing a shared link additionally holds the
// receiver's ingress for bytes·β_link seconds, granted in the receiver's
// matching order. That rule is a pure function of per-rank program order
// plus FIFO matching — the only total order the determinism argument
// (DESIGN.md §12) guarantees — so contended reports stay bit-identical at
// every event-window width and on both executors; see DESIGN.md §14.
//
// FaultPlan (fault.go) wraps any built topology with degraded links and
// straggler ranks as first-class scenarios.
package topo

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// Spec is the canonical, comparable topology configuration: every leaf is
// a scalar, so it can live inside conflux.Config and the planner cache key
// (internal/plan renders the floats in exact hex, like the machine β).
// The zero Spec means "no topology" — the flat trace.Machine path,
// byte-for-byte.
type Spec struct {
	// Preset names the model family: "flat", "hier", "dragonfly", or
	// "fattree" ("" only in the zero Spec).
	Preset string
	// RanksPerNode maps ranks onto nodes (rank r lives on node r/RPN);
	// < 1 is normalized to 1.
	RanksPerNode int
	// NodesPerGroup is the dragonfly group size (node n in group n/NPG);
	// ignored by the other families. < 1 normalizes to 1.
	NodesPerGroup int
	// Radix is the fat-tree switch radix (node n hangs off switch
	// n/Radix, recursively); ignored by the other families. < 2
	// normalizes to 2.
	Radix int
	// Intra is the intra-node link (all families). The zero Machine is
	// meaningful (free local moves), exactly as in trace.Machine.
	Intra trace.Machine
	// Inter is the inter-node link: hier's only remote tier, dragonfly's
	// intra-group tier, fattree's edge links.
	Inter trace.Machine
	// Global is the top tier: dragonfly's inter-group links, fattree's
	// core crossing. Unused by flat and hier.
	Global trace.Machine
	// Contention (0 or 1; an int so the planner key-perturbation
	// machinery covers it) enables FIFO ingress-link occupancy on remote
	// transfers.
	Contention int
}

// IsZero reports whether s is the zero Spec — "no topology configured".
func (s Spec) IsZero() bool { return s == Spec{} }

// presetFamilies is the closed set of model families Build dispatches on.
var presetFamilies = map[string]bool{
	"flat": true, "hier": true, "dragonfly": true, "fattree": true,
}

// Validate checks s is buildable: a known family and non-negative,
// finite machine parameters. The zero Spec is valid (it builds nothing).
func (s Spec) Validate() error {
	if s.IsZero() {
		return nil
	}
	if !presetFamilies[s.Preset] {
		return fmt.Errorf("topo: unknown topology family %q (want flat, hier, dragonfly, or fattree)", s.Preset)
	}
	if s.RanksPerNode < 0 || s.NodesPerGroup < 0 || s.Radix < 0 {
		return fmt.Errorf("topo: negative shape parameter in %+v", s)
	}
	if s.Contention != 0 && s.Contention != 1 {
		return fmt.Errorf("topo: Contention must be 0 or 1, got %d", s.Contention)
	}
	for i, m := range [...]trace.Machine{s.Intra, s.Inter, s.Global} {
		if err := errors.Join(trace.CheckNonNegative("alpha", m.Alpha), trace.CheckNonNegative("beta", m.Beta)); err != nil {
			return fmt.Errorf("topo: %s tier: %w", [...]string{"Intra", "Inter", "Global"}[i], err)
		}
	}
	return nil
}

// normalized resolves the shape parameters' defaulting rules.
func (s Spec) normalized() Spec {
	if s.RanksPerNode < 1 {
		s.RanksPerNode = 1
	}
	if s.NodesPerGroup < 1 {
		s.NodesPerGroup = 1
	}
	if s.Radix < 2 {
		s.Radix = 2
	}
	return s
}

// Build resolves the spec into a concrete topology for a p-rank world
// whose session machine is base (the flat family simulates exactly base;
// the others use the spec's own per-tier machines). The zero Spec builds
// nil — callers keep the plain-machine timeline path.
func (s Spec) Build(base trace.Machine, p int) (trace.Topology, error) {
	if s.IsZero() {
		return nil, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.normalized()
	contend := s.Contention == 1
	switch s.Preset {
	case "flat":
		return Flat(base), nil
	case "hier":
		return &hier{rpn: s.RanksPerNode, intra: s.Intra, inter: s.Inter, contend: contend}, nil
	case "dragonfly":
		return &dragonfly{rpn: s.RanksPerNode, npg: s.NodesPerGroup,
			intra: s.Intra, inter: s.Inter, global: s.Global, contend: contend}, nil
	case "fattree":
		nodes := (p + s.RanksPerNode - 1) / s.RanksPerNode
		return &fattree{rpn: s.RanksPerNode, radix: s.Radix, height: treeHeight(nodes, s.Radix),
			intra: s.Intra, edge: s.Inter, core: s.Global, contend: contend}, nil
	}
	return nil, fmt.Errorf("topo: unknown topology family %q", s.Preset)
}

// treeHeight is the smallest h ≥ 1 with radix^h >= nodes: the fat tree's
// switch levels. A single node still gets one edge switch.
func treeHeight(nodes, radix int) int {
	h, span := 1, radix
	for span < nodes {
		span *= radix
		h++
	}
	return h
}

// Flat is exactly today's α-β machine as a Topology: every endpoint
// occupancy is m.Time(bytes, 1) — the identical float expression the
// plain timeline evaluates — and nothing contends, so reports are
// bit-identical to running without a topology (the parity suite pins it).
func Flat(m trace.Machine) trace.Topology { return flat{m} }

type flat struct{ m trace.Machine }

func (f flat) Name() string                           { return "flat" }
func (f flat) SendCost(_, _ int, bytes int64) float64 { return f.m.Time(float64(bytes), 1) }
func (f flat) RecvCost(_, _ int, bytes int64) (occ, cost float64) {
	return 0, f.m.Time(float64(bytes), 1)
}

// hier is the two-tier model: intra-node transfers cost the node-local
// machine, inter-node transfers the network machine. With contention,
// remote transfers additionally hold the receiver's share of the node
// ingress link: the NIC's bandwidth is divided evenly among the
// RanksPerNode ranks behind it, so each delivery occupies the link for
// sharers·β·bytes — incast onto one rank (e.g. a reduction root fanning
// in one message per replication layer) pays bandwidth division instead
// of perfect overlap. The sharers factor is what lets the link bind: a
// plain β·bytes occupancy is always released by the time the receiver
// (which itself pays α + β·bytes per delivery) matches the next message.
type hier struct {
	rpn          int
	intra, inter trace.Machine
	contend      bool
}

func (h *hier) Name() string {
	if h.contend {
		return "hier+contention"
	}
	return "hier"
}

func (h *hier) node(r int) int { return r / h.rpn }

func (h *hier) cost(from, to int, bytes int64) float64 {
	if h.node(from) == h.node(to) {
		return h.intra.Time(float64(bytes), 1)
	}
	return h.inter.Time(float64(bytes), 1)
}

func (h *hier) SendCost(from, to int, bytes int64) float64 { return h.cost(from, to, bytes) }

func (h *hier) RecvCost(from, to int, bytes int64) (occ, cost float64) {
	if h.contend && h.node(from) != h.node(to) {
		occ = float64(h.rpn) * float64(bytes) * h.inter.Beta
	}
	return occ, h.cost(from, to, bytes)
}

// dragonfly is the three-tier Aries-class model. Routes:
//
//	same node            local link only
//	same group           node egress → group link → node ingress
//	different group      node egress → group → global → group → ingress
//
// Per-hop latencies sum along the route; the route's bandwidth is its
// narrowest link (max seconds-per-byte), the "per-hop α, min-β" rule.
type dragonfly struct {
	rpn, npg             int
	intra, inter, global trace.Machine
	contend              bool
}

func (d *dragonfly) Name() string {
	if d.contend {
		return "dragonfly+contention"
	}
	return "dragonfly"
}

func (d *dragonfly) node(r int) int { return r / d.rpn }

// route returns the summed α and narrowest β of the from → to path, and
// the shared link it enters the receiver's side by: how many ranks share it
// and its β. Cross-group deliveries share the destination group's global
// link (rpn·npg ranks behind it); in-group remote deliveries share the
// node's ingress (rpn ranks), an even division like hier's. A node-local
// route shares nothing.
func (d *dragonfly) route(from, to int) (alpha, beta, sharers, link float64) {
	// Every delivery is priced twice, so each rank's node is divided out
	// once and the groups only when the nodes differ.
	nf, nt := d.node(from), d.node(to)
	switch {
	case nf == nt:
		return d.intra.Alpha, d.intra.Beta, 0, 0
	case nf/d.npg == nt/d.npg:
		return 2*d.intra.Alpha + d.inter.Alpha, max(d.intra.Beta, d.inter.Beta),
			float64(d.rpn), d.inter.Beta
	default:
		return 2*d.intra.Alpha + 2*d.inter.Alpha + d.global.Alpha,
			max(d.intra.Beta, max(d.inter.Beta, d.global.Beta)),
			float64(d.rpn * d.npg), d.global.Beta
	}
}

func (d *dragonfly) SendCost(from, to int, bytes int64) float64 {
	alpha, beta, _, _ := d.route(from, to)
	return alpha + float64(bytes)*beta
}

func (d *dragonfly) RecvCost(from, to int, bytes int64) (occ, cost float64) {
	alpha, beta, sharers, link := d.route(from, to)
	if d.contend {
		occ = sharers * float64(bytes) * link
	}
	return occ, alpha + float64(bytes)*beta
}

// fattree routes through the lowest common ancestor switch: l levels up,
// l levels down, all on edge links, except that a route through the root
// (l == height) replaces the topmost up/down pair with core links — the
// conventional tapered (oversubscribed) core.
type fattree struct {
	rpn, radix, height int
	intra, edge, core  trace.Machine
	contend            bool
}

func (f *fattree) Name() string {
	if f.contend {
		return "fattree+contention"
	}
	return "fattree"
}

func (f *fattree) node(r int) int { return r / f.rpn }

// lca returns the number of switch levels up to the lowest common
// ancestor of nodes a and b (0 when a == b).
func (f *fattree) lca(a, b int) int {
	l := 0
	for a != b {
		a /= f.radix
		b /= f.radix
		l++
	}
	return l
}

func (f *fattree) SendCost(from, to int, bytes int64) float64 {
	_, cost := f.RecvCost(from, to, bytes)
	return cost
}

// RecvCost prices both endpoints alike; under contention the delivery also
// holds the receiver's share of the narrowest link on its route (rpn ranks
// behind the node's edge link).
func (f *fattree) RecvCost(from, to int, bytes int64) (occ, cost float64) {
	a, b := f.node(from), f.node(to)
	if a == b {
		return 0, f.intra.Time(float64(bytes), 1)
	}
	l := f.lca(a, b)
	alpha := float64(2*l) * f.edge.Alpha
	beta := f.edge.Beta
	if l >= f.height {
		// Root crossing: the top up/down hops ride the tapered core.
		alpha = float64(2*l-2)*f.edge.Alpha + 2*f.core.Alpha
		beta = max(beta, f.core.Beta)
	}
	if f.contend {
		occ = float64(f.rpn) * float64(bytes) * beta
	}
	return occ, alpha + float64(bytes)*beta
}
