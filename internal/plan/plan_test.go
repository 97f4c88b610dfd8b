package plan

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	conflux "repro"
	"repro/internal/costmodel"
)

// configLeaves flattens conflux.Config into leaf field paths
// ("Machine.Alpha", "Ranks", ...), recursing into nested structs so a new
// field anywhere in the tuple shows up as an unclassified leaf.
func configLeaves(t *testing.T, typ reflect.Type, prefix string) []string {
	t.Helper()
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := f.Name
		if prefix != "" {
			name = prefix + "." + name
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, configLeaves(t, f.Type, name)...)
			continue
		}
		out = append(out, name)
	}
	return out
}

// TestKeyCoversConfig is the key-completeness gate: every leaf field of
// conflux.Config must be classified — in the cache key (KeyFields) or
// provably result-irrelevant (ExcludedFields) — exactly once. Adding a
// Session option without deciding its cache semantics fails here, which is
// the central correctness obligation of the planner service: a missed key
// field would alias distinct results, a spuriously included one would
// fragment the cache across byte-identical entries.
func TestKeyCoversConfig(t *testing.T) {
	got := configLeaves(t, reflect.TypeOf(conflux.Config{}), "")
	want := append(append([]string{}, KeyFields...), ExcludedFields...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conflux.Config leaves %v\nclassified %v\nevery field must appear in exactly one of plan.KeyFields / plan.ExcludedFields", got, want)
	}
	seen := map[string]bool{}
	for _, f := range append(append([]string{}, KeyFields...), ExcludedFields...) {
		if seen[f] {
			t.Fatalf("field %q classified twice", f)
		}
		seen[f] = true
	}
}

// baseConfig is a fully explicit resolved configuration: every field
// non-zero so a +1 perturbation is always visible.
func baseConfig() conflux.Config {
	return conflux.Config{
		Ranks:        8,
		Memory:       4096,
		Algorithm:    conflux.COnfLUX,
		Machine:      conflux.DefaultMachine(),
		SolveRanks:   6,
		RHS:          2,
		RefineSweeps: 1,
		BlockSize:    32,
		// Every topology leaf non-zero too, so the KeyFields perturbation
		// loop below exercises each one (a +1 on a zero float is equally
		// visible, but non-zero bases also catch accidental
		// normalization in the key path).
		Topology: conflux.Topology{
			Preset: "hier", RanksPerNode: 4, NodesPerGroup: 8, Radix: 4,
			Intra:      conflux.Machine{Alpha: 3e-7, Beta: 2e-11},
			Inter:      conflux.Machine{Alpha: 1.5e-6, Beta: 1.25e-10},
			Global:     conflux.Machine{Alpha: 2.7e-6, Beta: 2e-10},
			Contention: 1,
		},
		Faults:   "L0:1:0x1p+03,S3:0x1p+01",
		Timeout:  time.Minute,
		Executor: "goroutines",
		Workers:  1,
	}
}

// fromConfig derives the canonical request for running job at dimension n
// on a session with the given resolved configuration. It consumes exactly
// the KeyFields of cfg — the ExcludedFields are dropped here, which is the
// code-level twin of the classification TestKeyCoversConfig enforces.
func fromConfig(cfg conflux.Config, n int, job Job) (Request, error) {
	return Request{
		Algorithm:    cfg.Algorithm,
		N:            n,
		P:            cfg.Ranks,
		Memory:       cfg.Memory,
		NB:           cfg.BlockSize,
		Alpha:        cfg.Machine.Alpha,
		Beta:         cfg.Machine.Beta,
		SolveRanks:   cfg.SolveRanks,
		RHS:          cfg.RHS,
		RefineSweeps: cfg.RefineSweeps,
		Topology:     cfg.Topology,
		Faults:       cfg.Faults,
		Job:          job,
	}.Canonicalize()
}

// validMoves are the leaves whose type-appropriate bump Canonicalize
// refuses (an unknown engine or family, Contention 2, a malformed fault
// plan), each with another valid value to move to instead.
var validMoves = map[string]any{
	"Algorithm":           conflux.CANDMC,
	"Topology.Preset":     "dragonfly",
	"Topology.Contention": 0,
	"Faults":              "L0:1:0x1p+03,S3:0x1p+02",
}

// perturbField moves the leaf at path in cfg to another valid value: a
// type-appropriate delta, or its entry in validMoves.
func perturbField(t *testing.T, cfg *conflux.Config, path string) {
	t.Helper()
	v := reflect.ValueOf(cfg).Elem()
	for _, part := range strings.Split(path, ".") {
		v = v.FieldByName(part)
		if !v.IsValid() {
			t.Fatalf("no field %q in conflux.Config", path)
		}
	}
	if x, ok := validMoves[path]; ok {
		v.Set(reflect.ValueOf(x).Convert(v.Type()))
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("perturbField: unhandled kind %v for %q — extend the test", v.Kind(), path)
	}
}

// TestKeySensitivity drives the classification end to end: perturbing any
// KeyField changes the key (requests differing only in machine β, nb,
// memory, ... MISS each other), while perturbing any ExcludedField leaves
// it unchanged (requests differing only in executor, workers, or timeout
// HIT the same entry).
func TestKeySensitivity(t *testing.T) {
	base, err := fromConfig(baseConfig(), 256, JobVolume)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range KeyFields {
		cfg := baseConfig()
		perturbField(t, &cfg, path)
		req, err := fromConfig(cfg, 256, JobVolume)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if req.Key() == base.Key() {
			t.Errorf("perturbing key field %s did not change the key %q", path, base.Key())
		}
	}
	for _, path := range ExcludedFields {
		cfg := baseConfig()
		perturbField(t, &cfg, path)
		req, err := fromConfig(cfg, 256, JobVolume)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if req.Key() != base.Key() {
			t.Errorf("perturbing excluded field %s changed the key: %q != %q", path, req.Key(), base.Key())
		}
	}
	// N and Job are key ingredients beyond the config struct.
	if r, _ := fromConfig(baseConfig(), 257, JobVolume); r.Key() == base.Key() {
		t.Error("changing n did not change the key")
	}
	if r, _ := fromConfig(baseConfig(), 256, JobSolve); r.Key() == base.Key() {
		t.Error("changing job did not change the key")
	}
}

// TestKeySessionLevel pins the same property through real Sessions: two
// sessions differing only in executor, workers, and timeout produce the
// same key; differing in β produces a different one.
func TestKeySessionLevel(t *testing.T) {
	s1, err := conflux.New(conflux.WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := conflux.New(conflux.WithRanks(4),
		conflux.WithExecutor("goroutines"), conflux.WithWorkers(8), conflux.WithTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := fromConfig(s1.Config(), 128, JobVolume)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fromConfig(s2.Config(), 128, JobVolume)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != r2.Key() {
		t.Fatalf("executor/workers/timeout leaked into the key:\n%q\n%q", r1.Key(), r2.Key())
	}
	m := conflux.DefaultMachine()
	m.Beta *= 1.0000001
	s3, err := conflux.New(conflux.WithRanks(4), conflux.WithMachine(m))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := fromConfig(s3.Config(), 128, JobVolume)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Key() == r1.Key() {
		t.Fatal("an ulp-level β difference did not change the key")
	}
}

// TestKeyTopologyLevel pins the topology satellite of the key
// classification through real Sessions: no-topology, flat-preset, and
// hier-preset sessions all produce distinct keys; an ulp-level change to
// the hier spec's inter-node β misses; adding a fault plan misses.
func TestKeyTopologyLevel(t *testing.T) {
	key := func(opts ...conflux.Option) string {
		t.Helper()
		s, err := conflux.New(append([]conflux.Option{conflux.WithRanks(8)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fromConfig(s.Config(), 128, JobVolume)
		if err != nil {
			t.Fatal(err)
		}
		return r.Key()
	}
	plain := key()
	flat := key(conflux.WithTopologyPreset("flat"))
	hier := key(conflux.WithTopologyPreset("hier"))
	if plain == flat || plain == hier || flat == hier {
		t.Fatalf("topology presets alias keys:\nplain %q\nflat  %q\nhier  %q", plain, flat, hier)
	}
	spec, err := conflux.TopologyPreset("hier")
	if err != nil {
		t.Fatal(err)
	}
	spec.Inter.Beta *= 1.0000001
	if key(conflux.WithTopology(spec)) == hier {
		t.Fatal("an ulp-level inter-node β difference did not change the key")
	}
	faulted := key(conflux.WithTopologyPreset("hier"),
		conflux.WithFaults(conflux.FaultPlan{Links: []conflux.LinkFault{{FromNode: 0, ToNode: 1, Factor: 8}}}))
	if faulted == hier {
		t.Fatal("a fault plan did not change the key")
	}
	// Entry order in the plan must not matter: Canonical sorts.
	a := conflux.FaultPlan{
		Links:      []conflux.LinkFault{{FromNode: 2, ToNode: 3, Factor: 4}, {FromNode: 0, ToNode: 1, Factor: 8}},
		Stragglers: []conflux.Straggler{{Rank: 5, Factor: 2}},
	}
	b := conflux.FaultPlan{
		Links:      []conflux.LinkFault{{FromNode: 0, ToNode: 1, Factor: 8}, {FromNode: 2, ToNode: 3, Factor: 4}},
		Stragglers: []conflux.Straggler{{Rank: 5, Factor: 2}},
	}
	if key(conflux.WithFaults(a)) != key(conflux.WithFaults(b)) {
		t.Fatal("fault-plan entry order leaked into the key")
	}
}

// keyPinned is a request that sets every key field to a value of its own.
func keyPinned(t testing.TB) Request {
	tp, err := conflux.TopologyPreset("dragonfly-contended")
	if err != nil {
		t.Fatal(err)
	}
	return Request{Algorithm: conflux.COnfLUX, N: 16384, P: 1024, Memory: 1.5e6 / 3, NB: 32,
		Alpha: 1e-6, Beta: math.Nextafter(1e-10, 1), SolveRanks: 256, RHS: 8, RefineSweeps: 2,
		Topology: tp, Faults: "straggler:3x2.5;link:0-1x4", Job: JobSolve}
}

// TestKeyString pins the key's text: every response carries it, and every
// cached answer is filed under it.
func TestKeyString(t *testing.T) {
	for _, c := range []struct {
		r    Request
		want string
	}{
		{keyPinned(t), "plan/v1|job=solve|algo=COnfLUX|n=16384|p=1024|m=0x1.e848p+18|nb=32|alpha=0x1.0c6f7a0b5ed8dp-20|beta=0x1.b7cdfd9d7bdbcp-34|sr=256|rhs=8|ref=2|topo=dragonfly|rpn=4|npg=8|radix=0|tia=0x1.421f5f40d8376p-22|tib=0x1.5fd7fe1796495p-36|tea=0x1.5cf751db94e6bp-20|teb=0x1.b7cdfd9d7bdbbp-34|tga=0x1.6a634b28f33e5p-19|tgb=0x1.12e0be826d695p-29|cont=1|faults=straggler:3x2.5;link:0-1x4"},
		{Request{}, "plan/v1|job=|algo=|n=0|p=0|m=0x0p+00|nb=0|alpha=0x0p+00|beta=0x0p+00|sr=0|rhs=0|ref=0|topo=|rpn=0|npg=0|radix=0|tia=0x0p+00|tib=0x0p+00|tea=0x0p+00|teb=0x0p+00|tga=0x0p+00|tgb=0x0p+00|cont=0|faults="},
	} {
		if got := c.r.Key(); got != c.want {
			t.Errorf("key\n%q\nwant\n%q", got, c.want)
		}
	}
}

// BenchmarkKey times one key of a request with every field set.
func BenchmarkKey(b *testing.B) {
	r := keyPinned(b)
	b.ReportAllocs()
	for b.Loop() {
		_ = r.Key()
	}
}

// TestCanonicalizeResolvesDefaults: a request spelled with defaults and one
// spelled with the defaults' explicit values share a key.
func TestCanonicalizeResolvesDefaults(t *testing.T) {
	implicit, err := Request{Algorithm: conflux.COnfLUX, N: 512, P: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Request{
		Algorithm:  conflux.COnfLUX,
		N:          512,
		P:          8,
		Memory:     costmodel.MaxMemoryParams(512, 8).M,
		SolveRanks: 8,
		RHS:        1,
		Job:        JobVolume,
	}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("default resolution not canonical:\n%q\n%q", implicit.Key(), explicit.Key())
	}
	// The free machine is canonical too — alpha=beta=0 is a real machine,
	// not "unset", mirroring WithFreeMachine.
	free, err := Request{Algorithm: conflux.COnfLUX, N: 512, P: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if free.Alpha != 0 || free.Beta != 0 {
		t.Fatalf("zero machine was rewritten: α=%v β=%v", free.Alpha, free.Beta)
	}
}

// TestCanonicalizeRejectsInvalid covers the typed failure surface of
// request validation.
func TestCanonicalizeRejectsInvalid(t *testing.T) {
	for name, req := range map[string]Request{
		"no algorithm": {N: 64, P: 4},
		"zero n":       {Algorithm: conflux.COnfLUX, P: 4},
		"negative p":   {Algorithm: conflux.COnfLUX, N: 64, P: -1},
		"negative mem": {Algorithm: conflux.COnfLUX, N: 64, P: 4, Memory: -1},
		"bad job":      {Algorithm: conflux.COnfLUX, N: 64, P: 4, Job: "fastest"},
	} {
		if _, err := req.Canonicalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCanonicalizeRefusesWhatNewRefuses: an engine name outside the table,
// an unknown topology family, a NaN tier α and a malformed fault plan fail
// Canonicalize with an error naming the field, and Planner.Evaluate returns
// that error without simulating.
func TestCanonicalizeRefusesWhatNewRefuses(t *testing.T) {
	g := &gatedRunner{release: make(chan struct{})}
	close(g.release)
	pl := NewPlanner(t.Context(), Options{Runner: g.run})
	nanTier, err := conflux.TopologyPreset("hier")
	if err != nil {
		t.Fatal(err)
	}
	nanTier.Inter.Alpha = math.NaN()
	for field, req := range map[string]Request{ // each error names its key
		"algorithm": {Algorithm: "HPL", N: 64, P: 4},
		"topology":  {Algorithm: conflux.COnfLUX, N: 64, P: 4, Topology: conflux.Topology{Preset: "torus"}},
		"Inter":     {Algorithm: conflux.COnfLUX, N: 64, P: 4, Topology: nanTier},
		"faults":    {Algorithm: conflux.COnfLUX, N: 64, P: 4, Faults: "garbage"},
	} {
		_, err := req.Canonicalize()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Canonicalize error %v does not name the field", field, err)
			continue
		}
		if _, _, evalErr := pl.Evaluate(t.Context(), req, time.Second); evalErr == nil || evalErr.Error() != err.Error() {
			t.Errorf("%s: Evaluate error %v, want %v", field, evalErr, err)
		}
	}
	if st := pl.Stats(); st.Simulations != 0 || g.count() != 0 {
		t.Fatalf("refused requests ran %d simulations (%d runner calls)", st.Simulations, g.count())
	}
}
