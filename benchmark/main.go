// Command benchmark is this repository's benchmark: five workloads over the
// simulator, the numeric solver and the planner service, each measured from
// outside through public functions with the options a user gets by default.
//
//	bash benchmark/run.sh --workload W --seed S --seconds T --trace 0   end-to-end metrics
//	bash benchmark/run.sh --workload W --seed S --seconds T --trace 1   per-layer metrics
//	bash benchmark/run.sh compare A.jsonl B.jsonl                       judge B against A
//	bash benchmark/run.sh manifest                                      print BENCHMARK.json
//
// The last line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics; everything else goes to standard
// error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 20

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sampleStats says how many samples a reported value stands on.
type sampleStats struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// record is what --out appends, one JSON line per run: the result plus the
// host block and what `compare` needs to pair runs up.
type record struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Seconds  float64                `json:"seconds"`
	Trace    int                    `json:"trace"`
	Quick    bool                   `json:"quick,omitempty"`
	Host     hostInfo               `json:"host"`
	Result   result                 `json:"result"`
	Samples  map[string]sampleStats `json:"samples,omitempty"`
	Notes    []string               `json:"notes,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "manifest":
			b, err := manifestJSON(runSeconds)
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: the traced pass with per-layer metrics")
	quick := fs.Bool("quick", false, "toy sizes (the tests use it); numbers mean nothing")
	out := fs.String("out", "", "append the full record (host block, samples) to this JSON-lines file")
	fs.Parse(os.Args[1:])

	// plan_hot times a 0.1 ms request whose two processes do nothing but
	// wake each other, and on a shared virtual host the cost of waking a
	// thread on another CPU drifts by a quarter within minutes. On one
	// CPU a wake-up is a local run-queue operation and the request's own
	// work is what is left (README.md, the noise section).
	if *workload == wPlanHot && runtime.NumCPU() > 1 {
		fmt.Fprintln(os.Stderr, "WARNING: not pinned, timings include cross-CPU wake-ups:", pinToOneCPU())
	}
	runtime.GOMAXPROCS(benchProcs())
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	e := &env{workload: *workload, seed: *seed, seconds: *seconds, quick: *quick,
		binDir: filepath.Dir(exe), outDir: filepath.Join(filepath.Dir(exe), "out")}
	rec, err := run(e, *trace)
	if err != nil {
		fatal(err)
	}
	report(os.Stderr, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes one workload, untraced (trace 0) or as the traced pass.
func run(e *env, trace int) (*record, error) {
	if !slices.ContainsFunc(workloadDocs, func(w workloadDoc) bool { return w.Name == e.workload }) {
		return nil, fmt.Errorf("unknown workload %q (see BENCHMARK.json)", e.workload)
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: trace, Quick: e.quick, Host: readHost()}
	if trace == 0 {
		m, err := measure(e)
		if err != nil {
			return nil, err
		}
		rec.Notes = m.notes
		rec.Result = result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
		samples := map[string][]float64{
			"setup_s":       m.setups,
			"op_wall_ms":    scaled(m.walls, 1e3),
			"cpu_ms_per_op": scaled(m.cpus, 1e3),
			"peak_rss_mb":   m.rss,
		}
		// What a shared host does to a one-second operation only ever adds
		// time, to a share of the operations that changes from minute to
		// minute, so the two time metrics are the mean of the fastest
		// quarter of the run's operations: it stays on the cluster the
		// undisturbed operations form. plan_hot's samples are already the
		// medians of bursts of requests, and there the faster of the host's
		// two states is the rare one, so a low quantile would jump between
		// them where the median stays with the majority (README.md, noise).
		typical := map[string]func([]float64) float64{"op_wall_ms": fastQuarterMean, "cpu_ms_per_op": fastQuarterMean}
		if e.workload == wPlanHot {
			typical = nil
		}
		rec.Samples = map[string]sampleStats{}
		for _, em := range e2eMetrics {
			estimate := median
			if f, ok := typical[em.Name]; ok {
				estimate = f
			}
			rec.Samples[em.Name] = stats(samples[em.Name])
			rec.Result.Metrics[em.Name] = metricValue{estimate(samples[em.Name]), em.Unit}
		}
		return rec, nil
	}

	tr := newTracer(e.workload)
	rows, res, err := layers(e, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(e.outDir, fmt.Sprintf("trace_%s_%d.json", e.workload, e.seed))); err != nil {
		return nil, err
	}
	rec.Result = res
	rec.Result.Metrics = map[string]metricValue{}
	for _, lm := range layerMetrics {
		rec.Result.Metrics[lm.Name] = metricValue{rows[lm.Name], lm.Unit}
	}
	return rec, nil
}

func measure(e *env) (*measurement, error) {
	switch e.workload {
	case wReplayConflux, wReplayFaulted:
		return measureLoop(e, func() (*loop, error) { return setupReplay(e) })
	case wNumericSolve:
		return measureLoop(e, func() (*loop, error) { return setupNumeric(e) })
	case wPlanCold:
		return measurePlanCold(e)
	default:
		return measurePlanHot(e)
	}
}

func layers(e *env, tr *tracer) (map[string]float64, result, error) {
	switch e.workload {
	case wReplayConflux, wReplayFaulted:
		return layersReplay(e, tr)
	case wNumericSolve:
		return layersNumeric(e, tr)
	case wPlanCold:
		return layersPlanCold(e, tr)
	default:
		return layersPlanHot(e, tr)
	}
}

// report prints the host block and every metric by name with its unit.
func report(w *os.File, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, kernels %s, load1 %.2f\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.KernelISA, h.Load1)
	if h.LoadWarning != "" {
		fmt.Fprintln(w, "WARNING:", h.LoadWarning)
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d: %d attempted, %d failed\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Result.Attempted, rec.Result.Failed)
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s", name, m.Value, m.Unit)
		if s, ok := rec.Samples[name]; ok {
			fmt.Fprintf(w, "   (%d samples)", s.N)
		}
		fmt.Fprintln(w)
	}
	for _, note := range rec.Notes {
		fmt.Fprintln(w, "FAILED:", note)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func scaled(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// fastQuarterMean is the mean of the fastest quarter of the samples, of the
// fastest one when there are fewer than eight.
func fastQuarterMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[:max(len(s)/4, 1)]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func stats(v []float64) sampleStats {
	st := sampleStats{N: len(v)}
	for i, x := range v {
		if i == 0 || x < st.Min {
			st.Min = x
		}
		if i == 0 || x > st.Max {
			st.Max = x
		}
	}
	return st
}
