package topo

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// LinkFault degrades every route from FromNode to ToNode (directed; -1
// wildcards a side) by multiplying its cost and ingress occupancy by
// Factor. Factor > 1 is a degraded link (8 = one eighth the effective
// bandwidth and 8× the latency), a factor in (0, 1) an upgraded one.
type LinkFault struct {
	FromNode, ToNode int
	Factor           float64
}

// Straggler slows one rank: every transfer it originates or completes
// takes Factor times as long on its clock. Compute is not simulated in
// volume mode, so a slow rank is honestly modeled as slow at moving
// bytes — the effect that actually propagates through matching.
type Straggler struct {
	Rank   int
	Factor float64
}

// FaultPlan is a first-class fault/straggler scenario: it wraps any built
// topology, and its effects — makespan impact, critical-path
// re-attribution (trace.TimeReport.CritRank moving onto the straggler or
// the ranks behind the degraded link) — read directly off the ordinary
// reports. The plan has a canonical string encoding (Canonical /
// ParseFaultPlan) so it can ride in conflux.Config and the planner cache
// key next to the topology spec.
type FaultPlan struct {
	Links      []LinkFault
	Stragglers []Straggler
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool { return len(p.Links) == 0 && len(p.Stragglers) == 0 }

// Validate checks factors are finite and positive, ranks non-negative,
// and nodes ≥ -1 (the wildcard).
func (p FaultPlan) Validate() error {
	for _, l := range p.Links {
		if l.FromNode < -1 || l.ToNode < -1 {
			return fmt.Errorf("topo: link fault nodes must be >= -1 (wildcard), got %d->%d", l.FromNode, l.ToNode)
		}
		if !(l.Factor > 0) || math.IsInf(l.Factor, 0) {
			return fmt.Errorf("topo: link fault factor must be finite and > 0, got %v", l.Factor)
		}
	}
	for _, s := range p.Stragglers {
		if s.Rank < 0 {
			return fmt.Errorf("topo: straggler rank must be >= 0, got %d", s.Rank)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
			return fmt.Errorf("topo: straggler factor must be finite and > 0, got %v", s.Factor)
		}
	}
	return nil
}

// Canonical renders the plan as a deterministic string: link entries
// sorted by (from, to), then straggler entries sorted by rank, factors in
// exact hexadecimal (the same treatment the planner key gives β, so two
// plans differing in the last ulp of a factor still miss each other).
// The empty plan renders "".
func (p FaultPlan) Canonical() string {
	links := append([]LinkFault(nil), p.Links...)
	sort.Slice(links, func(i, j int) bool {
		if links[i].FromNode != links[j].FromNode {
			return links[i].FromNode < links[j].FromNode
		}
		if links[i].ToNode != links[j].ToNode {
			return links[i].ToNode < links[j].ToNode
		}
		return links[i].Factor < links[j].Factor
	})
	stragglers := append([]Straggler(nil), p.Stragglers...)
	sort.Slice(stragglers, func(i, j int) bool {
		if stragglers[i].Rank != stragglers[j].Rank {
			return stragglers[i].Rank < stragglers[j].Rank
		}
		return stragglers[i].Factor < stragglers[j].Factor
	})
	var b strings.Builder
	for _, l := range links {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "L%d:%d:%s", l.FromNode, l.ToNode, strconv.FormatFloat(l.Factor, 'x', -1, 64))
	}
	for _, s := range stragglers {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "S%d:%s", s.Rank, strconv.FormatFloat(s.Factor, 'x', -1, 64))
	}
	return b.String()
}

// ParseFaultPlan is Canonical's inverse; it accepts any entry order and
// validates the result. "" parses to the empty plan.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var p FaultPlan
	if s == "" {
		return p, nil
	}
	for _, ent := range strings.Split(s, ",") {
		switch {
		case strings.HasPrefix(ent, "L"):
			parts := strings.Split(ent[1:], ":")
			if len(parts) != 3 {
				return p, fmt.Errorf("topo: malformed link fault %q (want L<from>:<to>:<factor>)", ent)
			}
			from, err1 := strconv.Atoi(parts[0])
			to, err2 := strconv.Atoi(parts[1])
			f, err3 := strconv.ParseFloat(parts[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return p, fmt.Errorf("topo: malformed link fault %q", ent)
			}
			p.Links = append(p.Links, LinkFault{FromNode: from, ToNode: to, Factor: f})
		case strings.HasPrefix(ent, "S"):
			parts := strings.Split(ent[1:], ":")
			if len(parts) != 2 {
				return p, fmt.Errorf("topo: malformed straggler %q (want S<rank>:<factor>)", ent)
			}
			rank, err1 := strconv.Atoi(parts[0])
			f, err2 := strconv.ParseFloat(parts[1], 64)
			if err1 != nil || err2 != nil {
				return p, fmt.Errorf("topo: malformed straggler %q", ent)
			}
			p.Stragglers = append(p.Stragglers, Straggler{Rank: rank, Factor: f})
		default:
			return p, fmt.Errorf("topo: malformed fault entry %q (want L... or S...)", ent)
		}
	}
	return p, p.Validate()
}

// BuildFaulted is the one-call constructor the Session uses: it builds
// the spec's topology for a p-rank world and wraps it with the fault
// plan. A zero spec with a non-empty plan faults the flat view of the
// session machine (faults are meaningful without a topology); a zero
// spec and empty plan build nil — the untouched plain-machine path.
func BuildFaulted(s Spec, base trace.Machine, p int, fp FaultPlan) (trace.Topology, error) {
	if s.IsZero() && fp.Empty() {
		return nil, nil
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if s.IsZero() {
		s = Spec{Preset: "flat"}
	}
	inner, err := s.Build(base, p)
	if err != nil {
		return nil, err
	}
	if fp.Empty() {
		return inner, nil
	}
	f := &faulted{inner: inner, rpn: s.normalized().RanksPerNode,
		links: append([]LinkFault(nil), fp.Links...), slow: make([]float64, p)}
	for i := range f.slow {
		f.slow[i] = 1
	}
	for _, st := range fp.Stragglers {
		if st.Rank < len(f.slow) {
			f.slow[st.Rank] *= st.Factor
		}
	}
	return f, nil
}

// faulted layers a FaultPlan over any topology: link faults multiply the
// route cost and ingress occupancy of matching node pairs, stragglers
// multiply the occupancy on their own rank's side of every transfer. All
// factors are fixed before the run, so determinism is inherited from the
// inner model unchanged.
type faulted struct {
	inner trace.Topology
	rpn   int
	links []LinkFault
	slow  []float64 // per-rank straggler factor, 1 = nominal
}

func (f *faulted) Name() string { return f.inner.Name() + "+faults" }

func (f *faulted) linkFactor(from, to int) float64 {
	nf, nt := from/f.rpn, to/f.rpn
	x := 1.0
	for _, l := range f.links {
		if (l.FromNode == -1 || l.FromNode == nf) && (l.ToNode == -1 || l.ToNode == nt) {
			x *= l.Factor
		}
	}
	return x
}

func (f *faulted) rankFactor(r int) float64 {
	if r < len(f.slow) {
		return f.slow[r]
	}
	return 1
}

func (f *faulted) SendCost(from, to int, bytes int64) float64 {
	return f.inner.SendCost(from, to, bytes) * f.linkFactor(from, to) * f.rankFactor(from)
}

// RecvCost scales both receive-side prices by the link factor, then by the
// receiver's straggler factor — SendCost's operand order. Simulated clocks
// depend on each product's rounding, so the order is part of the contract.
func (f *faulted) RecvCost(from, to int, bytes int64) (occ, cost float64) {
	occ, cost = f.inner.RecvCost(from, to, bytes)
	lf, rf := f.linkFactor(from, to), f.rankFactor(to)
	return occ * lf * rf, cost * lf * rf
}
