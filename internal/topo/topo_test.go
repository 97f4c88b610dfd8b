package topo

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func mustBuild(t *testing.T, spec Spec, base trace.Machine, p int) trace.Topology {
	t.Helper()
	tp, err := spec.Build(base, p)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestFlatMatchesMachine: the flat family evaluates the identical float
// expression the plain timeline uses, for arbitrary endpoints.
func TestFlatMatchesMachine(t *testing.T) {
	m := trace.Machine{Alpha: 1.7e-6, Beta: 3.1e-10}
	f := Flat(m)
	for _, bytes := range []int64{0, 1, 8, 4096, 1 << 20} {
		want := m.Time(float64(bytes), 1)
		if got := f.SendCost(3, 9, bytes); got != want {
			t.Fatalf("SendCost(%d) = %v, want %v", bytes, got, want)
		}
		occ, got := f.RecvCost(9, 3, bytes)
		if got != want {
			t.Fatalf("RecvCost(%d) = %v, want %v", bytes, got, want)
		}
		if occ != 0 {
			t.Fatalf("flat must not contend, got occupancy %v", occ)
		}
	}
}

// TestHierTiers pins the two-tier cost split and the contended variant's
// ingress rule.
func TestHierTiers(t *testing.T) {
	spec := Spec{Preset: "hier", RanksPerNode: 4,
		Intra: trace.Machine{Alpha: 1e-7, Beta: 1e-11},
		Inter: trace.Machine{Alpha: 2e-6, Beta: 2e-10}}
	tp := mustBuild(t, spec, trace.Machine{}, 16)
	const b = int64(1000)
	// Ranks 0 and 3 share node 0; rank 4 is on node 1.
	local := spec.Intra.Time(float64(b), 1)
	remote := spec.Inter.Time(float64(b), 1)
	if got := tp.SendCost(0, 3, b); got != local {
		t.Fatalf("intra-node cost %v, want %v", got, local)
	}
	if got := tp.SendCost(0, 4, b); got != remote {
		t.Fatalf("inter-node cost %v, want %v", got, remote)
	}
	if occ, got := tp.RecvCost(0, 4, b); occ != 0 || got != remote {
		t.Fatalf("uncontended hier recv (%v, %v), want (0, %v): no ingress charge", occ, got, remote)
	}
	spec.Contention = 1
	ct := mustBuild(t, spec, trace.Machine{}, 16)
	// Bandwidth division: the node ingress is shared by RanksPerNode
	// ranks, so one delivery occupies it for rpn·β·bytes.
	if occ, got := ct.RecvCost(0, 4, b); occ != 4*float64(b)*spec.Inter.Beta || got != remote {
		t.Fatalf("contended recv (%v, %v), want shared-link serialization %v and cost %v",
			occ, got, 4*float64(b)*spec.Inter.Beta, remote)
	}
	if occ, got := ct.RecvCost(0, 3, b); occ != 0 || got != local {
		t.Fatalf("intra-node recv (%v, %v), want (0, %v): no contention", occ, got, local)
	}
}

// TestDragonflyRoutes pins the per-hop-α / min-β rule on all three tiers,
// for both endpoints: uncontended, a receive costs what the send does and
// occupies no link.
func TestDragonflyRoutes(t *testing.T) {
	spec := Spec{Preset: "dragonfly", RanksPerNode: 2, NodesPerGroup: 2,
		Intra:  trace.Machine{Alpha: 1e-7, Beta: 1e-11},
		Inter:  trace.Machine{Alpha: 1e-6, Beta: 1e-10},
		Global: trace.Machine{Alpha: 3e-6, Beta: 2e-10}}
	tp := mustBuild(t, spec, trace.Machine{}, 16)
	const b = int64(500)
	fb := float64(b)
	for _, tc := range []struct {
		name     string
		from, to int
		want     float64
	}{
		// same node: ranks 0, 1.
		{"same-node", 0, 1, spec.Intra.Alpha + fb*spec.Intra.Beta},
		// same group (nodes 0 and 1 = ranks 0..3): two node hops + one group link.
		{"same-group", 0, 2, 2*spec.Intra.Alpha + spec.Inter.Alpha + fb*spec.Inter.Beta},
		// cross group (rank 0 in group 0, rank 4 on node 2 = group 1).
		{"cross-group", 0, 4, 2*spec.Intra.Alpha + 2*spec.Inter.Alpha + spec.Global.Alpha + fb*spec.Global.Beta},
	} {
		if got := tp.SendCost(tc.from, tc.to, b); got != tc.want {
			t.Fatalf("%s route %v, want %v", tc.name, got, tc.want)
		}
		if occ, got := tp.RecvCost(tc.from, tc.to, b); occ != 0 || got != tc.want {
			t.Fatalf("%s recv (%v, %v), want (0, %v)", tc.name, occ, got, tc.want)
		}
	}
}

// TestFaultedDragonflyRecvCost pins the fused receive-side price on the
// replay_2d_faulted model — contended dragonfly under a fault plan — against
// the closed forms, bit for bit, on each tier: the inner route's occupancy
// and cost, each multiplied by the link factor and then the receiver's
// straggler factor. Rank 1 (node 0, group 0) receives from its node-mate 0,
// from rank 2 in its group and from rank 4 across groups; the link fault
// into node 0 and the straggler factor on rank 1 apply to all three.
func TestFaultedDragonflyRecvCost(t *testing.T) {
	spec := Spec{Preset: "dragonfly", RanksPerNode: 2, NodesPerGroup: 2, Contention: 1,
		Intra:  trace.Machine{Alpha: 3e-7, Beta: 2e-11},
		Inter:  trace.Machine{Alpha: 1.3e-6, Beta: 1e-10},
		Global: trace.Machine{Alpha: 2.7e-6, Beta: 2e-9}}
	const lf, rf = 1.7, 2.9
	tp, err := BuildFaulted(spec, trace.Machine{}, 16, FaultPlan{
		Links:      []LinkFault{{FromNode: -1, ToNode: 0, Factor: lf}},
		Stragglers: []Straggler{{Rank: 1, Factor: rf}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const b = int64(4097)
	fb := float64(b)
	in, ex, gl := spec.Intra, spec.Inter, spec.Global
	for _, tc := range []struct {
		name      string
		from      int
		occ, cost float64
	}{
		{"same-node", 0, 0, (in.Alpha + fb*in.Beta) * lf * rf},
		{"in-group", 2, 2 * fb * ex.Beta * lf * rf,
			(2*in.Alpha + ex.Alpha + fb*max(in.Beta, ex.Beta)) * lf * rf},
		{"cross-group", 4, 4 * fb * gl.Beta * lf * rf,
			(2*in.Alpha + 2*ex.Alpha + gl.Alpha + fb*max(in.Beta, ex.Beta, gl.Beta)) * lf * rf},
	} {
		occ, cost := tp.RecvCost(tc.from, 1, b)
		if math.Float64bits(occ) != math.Float64bits(tc.occ) || math.Float64bits(cost) != math.Float64bits(tc.cost) {
			t.Errorf("%s: RecvCost = (%v, %v), closed form (%v, %v)", tc.name, occ, cost, tc.occ, tc.cost)
		}
	}
}

// TestFatTreeDistances pins the LCA hop count and the core taper.
func TestFatTreeDistances(t *testing.T) {
	spec := Spec{Preset: "fattree", RanksPerNode: 1, Radix: 2,
		Intra:  trace.Machine{},
		Inter:  trace.Machine{Alpha: 1e-6, Beta: 1e-10},
		Global: trace.Machine{Alpha: 2e-6, Beta: 4e-10}}
	// 8 nodes, radix 2 → height 3.
	tp := mustBuild(t, spec, trace.Machine{}, 8)
	const b = int64(100)
	fb := float64(b)
	// Nodes 0 and 1 meet one level up: 2 edge hops.
	if got, want := tp.SendCost(0, 1, b), 2*spec.Inter.Alpha+fb*spec.Inter.Beta; got != want {
		t.Fatalf("l=1 route %v, want %v", got, want)
	}
	// Nodes 0 and 2 meet two levels up: 4 edge hops.
	if got, want := tp.SendCost(0, 2, b), 4*spec.Inter.Alpha+fb*spec.Inter.Beta; got != want {
		t.Fatalf("l=2 route %v, want %v", got, want)
	}
	// Nodes 0 and 7 cross the root: 4 edge + 2 core hops, core β governs.
	wantRoot := 4*spec.Inter.Alpha + 2*spec.Global.Alpha + fb*spec.Global.Beta
	if got := tp.SendCost(0, 7, b); got != wantRoot {
		t.Fatalf("root crossing %v, want %v", got, wantRoot)
	}
	// Contended, a receive holds the node's edge link, or the core's
	// narrower one at a root crossing, and costs what the send does.
	spec.Contention = 1
	ct := mustBuild(t, spec, trace.Machine{}, 8)
	if occ, got := ct.RecvCost(0, 1, b); occ != fb*spec.Inter.Beta || got != 2*spec.Inter.Alpha+fb*spec.Inter.Beta {
		t.Fatalf("contended l=1 recv (%v, %v)", occ, got)
	}
	if occ, got := ct.RecvCost(0, 7, b); occ != fb*spec.Global.Beta || got != wantRoot {
		t.Fatalf("contended root recv (%v, %v), want (%v, %v)", occ, got, fb*spec.Global.Beta, wantRoot)
	}
}

// TestPresets: every named preset resolves, validates, builds for a
// small world, and the flat preset builds the base machine.
func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		spec, err := PresetSpec(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: invalid preset: %v", name, err)
		}
		tp := mustBuild(t, spec, trace.DefaultMachine(), 64)
		if tp == nil {
			t.Fatalf("%s: built nil", name)
		}
		if tp.Name() == "" {
			t.Fatalf("%s: empty topology name", name)
		}
	}
	if _, err := PresetSpec("torus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	m := trace.Machine{Alpha: 5e-6, Beta: 5e-10}
	spec, _ := PresetSpec("flat")
	tp := mustBuild(t, spec, m, 8)
	if got, want := tp.SendCost(0, 1, 100), m.Time(100, 1); got != want {
		t.Fatalf("flat preset ignores the session machine: %v != %v", got, want)
	}
}

// TestSpecValidate covers the typed failure surface.
func TestSpecValidate(t *testing.T) {
	cases := map[string]Spec{
		"unknown family": {Preset: "torus"},
		"negative shape": {Preset: "hier", RanksPerNode: -1},
		"bad contention": {Preset: "hier", Contention: 2},
		"negative beta":  {Preset: "hier", Inter: trace.Machine{Beta: -1}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	if tp, err := (Spec{}).Build(trace.DefaultMachine(), 8); err != nil || tp != nil {
		t.Errorf("zero spec must build nil, got %v, %v", tp, err)
	}
}

// TestFaultPlanCanonicalRoundTrip: Canonical is order-insensitive and
// ParseFaultPlan inverts it exactly.
func TestFaultPlanCanonicalRoundTrip(t *testing.T) {
	p := FaultPlan{
		Links:      []LinkFault{{FromNode: 2, ToNode: -1, Factor: 4.5}, {FromNode: 0, ToNode: 1, Factor: 8}},
		Stragglers: []Straggler{{Rank: 7, Factor: 2}, {Rank: 1, Factor: 1.25}},
	}
	c := p.Canonical()
	q := FaultPlan{ // same entries, shuffled
		Links:      []LinkFault{{FromNode: 0, ToNode: 1, Factor: 8}, {FromNode: 2, ToNode: -1, Factor: 4.5}},
		Stragglers: []Straggler{{Rank: 1, Factor: 1.25}, {Rank: 7, Factor: 2}},
	}
	if q.Canonical() != c {
		t.Fatalf("entry order leaked into the encoding:\n%q\n%q", c, q.Canonical())
	}
	back, err := ParseFaultPlan(c)
	if err != nil {
		t.Fatal(err)
	}
	if back.Canonical() != c {
		t.Fatalf("round trip drifted:\n%q\n%q", c, back.Canonical())
	}
	if (FaultPlan{}).Canonical() != "" {
		t.Fatal("empty plan must encode to the empty string")
	}
	if empty, err := ParseFaultPlan(""); err != nil || !empty.Empty() {
		t.Fatalf("empty string must parse to the empty plan, got %+v, %v", empty, err)
	}
	for _, bad := range []string{"X1:2", "L1:2", "L1:2:zap", "S-1:0x1p+01", "Lx:y:0x1p+01", "S1:0x0p+00"} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("ParseFaultPlan(%q): accepted", bad)
		}
	}
}

// TestFaultedFactors pins the fault wrapper's charging rules: link
// factors multiply matching node pairs (wildcards included), straggler
// factors multiply the slow rank's side only.
func TestFaultedFactors(t *testing.T) {
	spec := Spec{Preset: "hier", RanksPerNode: 2,
		Intra: trace.Machine{Alpha: 1e-7, Beta: 1e-11},
		Inter: trace.Machine{Alpha: 1e-6, Beta: 1e-10}}
	base, err := spec.Build(trace.Machine{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := FaultPlan{
		Links:      []LinkFault{{FromNode: -1, ToNode: 0, Factor: 8}},
		Stragglers: []Straggler{{Rank: 5, Factor: 3}},
	}
	tp, err := BuildFaulted(spec, trace.Machine{}, 8, plan)
	if err != nil {
		t.Fatal(err)
	}
	const b = int64(1000)
	recvCost := func(tp trace.Topology, from, to int) float64 {
		occ, cost := tp.RecvCost(from, to, b)
		if occ != 0 {
			t.Fatalf("uncontended recv %d → %d occupies the ingress link for %v", from, to, occ)
		}
		return cost
	}
	// Route into node 0 (rank 2 → rank 1): 8× on every charge.
	if got, want := recvCost(tp, 2, 1), 8*recvCost(base, 2, 1); got != want {
		t.Fatalf("degraded-link recv %v, want %v", got, want)
	}
	// Route the other way (rank 1 → rank 2): directed fault, unchanged.
	if got, want := tp.SendCost(1, 2, b), base.SendCost(1, 2, b); got != want {
		t.Fatalf("reverse direction degraded: %v, want %v", got, want)
	}
	// Straggler rank 5: its sends and receives slow 3×; its peers' side
	// of the same transfer does not.
	if got, want := tp.SendCost(5, 2, b), 3*base.SendCost(5, 2, b); got != want {
		t.Fatalf("straggler send %v, want %v", got, want)
	}
	if got, want := recvCost(tp, 5, 2), recvCost(base, 5, 2); got != want {
		t.Fatalf("straggler's peer recv %v, want %v", got, want)
	}
	if got, want := recvCost(tp, 2, 5), 3*recvCost(base, 2, 5); got != want {
		t.Fatalf("straggler recv %v, want %v", got, want)
	}
	if !strings.HasSuffix(tp.Name(), "+faults") {
		t.Fatalf("fault wrapper name %q lacks the +faults stamp", tp.Name())
	}
	// Faults on the zero spec wrap the flat session machine.
	m := trace.Machine{Alpha: 1e-6, Beta: 1e-10}
	ft, err := BuildFaulted(Spec{}, m, 4, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ft.SendCost(5, 2, b), m.Time(float64(b), 1); got != want {
		// rank 5 is outside the 4-rank world: factor 1.
		t.Fatalf("out-of-world straggler factored: %v, want %v", got, want)
	}
	if ft, err = BuildFaulted(Spec{}, m, 8, plan); err != nil {
		t.Fatal(err)
	}
	if got, want := ft.SendCost(5, 2, b), 3*m.Time(float64(b), 1); got != want {
		t.Fatalf("flat faulted send %v, want %v", got, want)
	}
	if tp, err := BuildFaulted(Spec{}, m, 8, FaultPlan{}); err != nil || tp != nil {
		t.Fatalf("zero spec + empty plan must build nil, got %v, %v", tp, err)
	}
}

// TestFaultPlanValidate covers the plan's failure surface.
func TestFaultPlanValidate(t *testing.T) {
	cases := map[string]FaultPlan{
		"zero factor":     {Links: []LinkFault{{FromNode: 0, ToNode: 1}}},
		"negative factor": {Stragglers: []Straggler{{Rank: 0, Factor: -2}}},
		"bad node":        {Links: []LinkFault{{FromNode: -2, ToNode: 0, Factor: 2}}},
		"negative rank":   {Stragglers: []Straggler{{Rank: -1, Factor: 2}}},
	}
	for name, plan := range cases {
		if err := plan.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpecComparable: Spec must stay all-scalar and comparable — the
// planner key and Config embedding rely on it.
func TestSpecComparable(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	if !typ.Comparable() {
		t.Fatal("Spec is not comparable")
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.String, reflect.Int, reflect.Float64:
		case reflect.Struct:
			if f.Type != reflect.TypeOf(trace.Machine{}) {
				t.Fatalf("field %s: unexpected struct type %v", f.Name, f.Type)
			}
		default:
			t.Fatalf("field %s: kind %v breaks the all-scalar contract", f.Name, f.Type.Kind())
		}
	}
}
