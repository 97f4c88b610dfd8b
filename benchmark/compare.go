package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// compare.go judges run set B against run set A (two --out files): one row
// per workload and metric. End-to-end metrics get their direction and bound
// from the manifest; a metric whose run-to-run spread is wider than its
// bound is reported unresolved, never unchanged. Exact per-layer metrics
// must be bit-equal on every seed both sets ran. The remaining per-layer
// metrics are listed with their change and no verdict.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance procedure for this benchmark uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// series collects one metric's values over the runs of one workload.
type series struct {
	values []float64
	bySeed map[uint64]float64
}

func collect(recs []record, trace int) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, r := range recs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]*series{}
		}
		for name, m := range r.Result.Metrics {
			s := out[r.Workload][name]
			if s == nil {
				s = &series{bySeed: map[uint64]float64{}}
				out[r.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
			s.bySeed[r.Seed] = m.Value
		}
	}
	return out
}

// compareMain implements `benchmark compare A B`. It returns the exit code:
// 0 when nothing regressed, 1 on a regression, 2 on unusable input.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	regressed := false
	for _, r := range b {
		if r.Result.Failed > 0 || !r.Result.Correct {
			fmt.Fprintf(w, "%-18s seed %d trace %d: %d of %d operations failed  REGRESSION\n",
				r.Workload, r.Seed, r.Trace, r.Result.Failed, r.Result.Attempted)
			regressed = true
		}
	}

	fmt.Fprintf(w, "%-18s %-30s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	e2eA, e2eB := collect(a, 0), collect(b, 0)
	for _, wd := range workloadDocs {
		for _, m := range e2eMetrics {
			sa, sb := e2eA[wd.Name][m.Name], e2eB[wd.Name][m.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			change := (mb - ma) / ma
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spA, spB := spread(sa.values), spread(sb.values)
			verdict := "ok"
			switch {
			case spA > m.Bound || spB > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-30s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wd.Name, m.Name, ma, mb, 100*change, 100*spA, 100*spB, 100*m.Bound, verdict)
		}
	}
	layA, layB := collect(a, 1), collect(b, 1)
	for _, wd := range workloadDocs {
		for _, m := range layerMetrics {
			sa, sb := layA[wd.Name][m.Name], layB[wd.Name][m.Name]
			if sa == nil || sb == nil || !slices.Contains(m.On, wd.Name) {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			verdict := "recorded"
			if m.Exact {
				verdict = "unpaired"
				for seed, va := range sa.bySeed {
					vb, ok := sb.bySeed[seed]
					if !ok {
						continue
					}
					if verdict = "exact"; va != vb {
						verdict = fmt.Sprintf("REGRESSION (seed %d: %v != %v)", seed, va, vb)
						regressed = true
						break
					}
				}
			}
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-18s %-30s %14.6g %14.6g %+7.1f%% %8s %8s %6s  %s\n",
				wd.Name, m.Name, ma, mb, 100*change, "", "", "", verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
