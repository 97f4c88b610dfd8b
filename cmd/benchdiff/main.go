// Command benchdiff compares two machine-readable records of the same kind
// row by row. The kind comes from the record's "kind" field; a file with any
// other kind, or none, is an error.
//
// Records with "kind": "topology" (`confluxbench -exp topology -json`) are
// compared exactly: every number in them is simulated, so two runs of the
// same sweep must agree bit for bit, and any drift on a shared row is a
// determinism regression regardless of threshold.
//
// Records with "kind": "kernels" (`confluxbench -exp kernels -json`) are
// host measurements of the local level-3 kernels: rows compare with the
// time threshold, and the headline 512×512 blocked-GEMM speedup must stay
// at or above bench.MinGemmSpeedup512 — the acceptance floor that lets
// numeric factorization run at paper scale.
//
// Regressions are flagged in the log and summarized on stderr; the exit
// status stays 0 unless -exit is set, so a noisy runner cannot fail a build
// on timing jitter by default.
//
// Usage:
//
//	benchdiff [-threshold 10] [-exit] OLD.json NEW.json
//
// Only rows present in both records are compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

// record is one loaded file: exactly one of topo/kern is set, dispatched on
// the "kind" field.
type record struct {
	topo *bench.TopoReport
	kern *bench.KernelReport
}

func load(path string) (record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &kind); err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	var rec record
	switch kind.Kind {
	case "topology":
		rec.topo = new(bench.TopoReport)
		err = json.Unmarshal(raw, rec.topo)
	case "kernels":
		rec.kern = new(bench.KernelReport)
		err = json.Unmarshal(raw, rec.kern)
	default:
		return record{}, fmt.Errorf("%s: unknown record kind %q (want \"topology\" or \"kernels\")", path, kind.Kind)
	}
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// diffTopo compares two topology sweeps exactly. Shared rows — same
// (scenario, engine, c) — must agree on bytes and makespan to the last
// bit; the recorded optima must match wherever both sweeps cover the
// scenario. Returns (drifted rows, shared rows).
func diffTopo(w io.Writer, oldRep, newRep *bench.TopoReport) (int, int) {
	type rowKey struct {
		scenario string
		algo     string
		c        int
	}
	oldRows := map[rowKey]bench.TopoRow{}
	for _, r := range oldRep.Rows {
		oldRows[rowKey{r.Scenario, string(r.Algo), r.C}] = r
	}
	fmt.Fprintf(w, "%-22s %-8s %-3s %14s %14s\n", "scenario", "engine", "c", "bytes", "makespan")
	drift, compared := 0, 0
	for _, r := range newRep.Rows {
		o, ok := oldRows[rowKey{r.Scenario, string(r.Algo), r.C}]
		if !ok {
			continue
		}
		compared++
		mark := ""
		if o.Bytes != r.Bytes || o.Makespan != r.Makespan {
			mark = fmt.Sprintf("  <<< REGRESSION: determinism (was %d bytes, %.17gs)", o.Bytes, o.Makespan)
			drift++
		}
		fmt.Fprintf(w, "%-22s %-8s %-3d %14d %14.6e%s\n", r.Scenario, r.Algo, r.C, r.Bytes, r.Makespan, mark)
	}
	for name, o := range oldRep.Optima {
		n, ok := newRep.Optima[name]
		if !ok {
			continue
		}
		if o != n {
			fmt.Fprintf(w, "optimum %-22s moved: %s c=%d -> %s c=%d  <<< REGRESSION: optimum\n",
				name, o.Algo, o.C, n.Algo, n.C)
			drift++
		}
	}
	return drift, compared
}

// diffKernels compares two kernel micro-benchmark records: shared rows
// with the threshold on time, plus the headline 512×512 GEMM speedup
// floor (bench.MinGemmSpeedup512) — the blocked kernels are what lets
// numeric factorization run at paper scale, so falling below the floor is
// a regression even if no individual row moved by the threshold. Records
// taken on hosts with different ISAs (asm vs generic micro-kernel) are
// compared with rows only; the speedup floor still applies, since the
// acceptance bar is host-relative.
func diffKernels(w io.Writer, oldRep, newRep *bench.KernelReport, threshold float64) (int, int) {
	fmt.Fprintf(w, "benchdiff kernel records (isa %s -> %s), regression threshold %.0f%%\n",
		oldRep.ISA, newRep.ISA, threshold)
	oldByName := map[string]bench.KernelRow{}
	for _, r := range oldRep.Rows {
		oldByName[r.Name] = r
	}
	fmt.Fprintf(w, "%-36s %14s %14s %8s %12s\n", "case", "old", "new", "Δtime", "MFLOP/s")
	regressions, compared := 0, 0
	for _, r := range newRep.Rows {
		o, ok := oldByName[r.Name]
		if !ok {
			continue
		}
		compared++
		dt := pct(o.NsPerOp, r.NsPerOp)
		mark := ""
		if dt > threshold {
			mark = "  <<< REGRESSION: time"
			regressions++
		}
		fmt.Fprintf(w, "%-36s %14s %14s %+7.1f%% %12.0f%s\n",
			r.Name, time.Duration(o.NsPerOp), time.Duration(r.NsPerOp), dt, r.MFlops, mark)
	}
	fmt.Fprintf(w, "speedup at 512x512: %.2fx -> %.2fx (floor %.1fx)\n",
		oldRep.Speedup512, newRep.Speedup512, bench.MinGemmSpeedup512)
	if newRep.Speedup512 < bench.MinGemmSpeedup512 {
		fmt.Fprintf(w, "  <<< REGRESSION: blocked GEMM speedup below the %.1fx acceptance floor\n",
			bench.MinGemmSpeedup512)
		regressions++
	}
	return regressions, compared
}

func pct(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (float64(new) - float64(old)) / float64(old)
}

func main() {
	threshold := flag.Float64("threshold", 10, "flag kernel time regressions beyond this percentage")
	hardExit := flag.Bool("exit", false, "exit non-zero when any row regressed or drifted")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold pct] [-exit] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRec, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	newRec, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var regressions, compared int
	var verdict string
	switch {
	case oldRec.topo != nil && newRec.topo != nil:
		fmt.Printf("benchdiff %s (%s) -> %s (%s), topology records: exact comparison\n",
			flag.Arg(0), oldRec.topo.Scale, flag.Arg(1), newRec.topo.Scale)
		regressions, compared = diffTopo(os.Stdout, oldRec.topo, newRec.topo)
		verdict = "topology row(s) drifted — simulated results are deterministic, so this is a real change"
	case oldRec.kern != nil && newRec.kern != nil:
		regressions, compared = diffKernels(os.Stdout, oldRec.kern, newRec.kern, *threshold)
		verdict = "kernel case(s) regressed — the level-3 kernels are a conformance prerequisite, inspect before merging"
	default:
		fmt.Fprintln(os.Stderr, "benchdiff: cannot compare a topology record with a kernels record")
		os.Exit(2)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: the two records share no cases")
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d %s\n", regressions, verdict)
		if *hardExit {
			os.Exit(1)
		}
	}
}
