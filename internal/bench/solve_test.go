package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestMeasureSolveMetersBothPhases(t *testing.T) {
	m, err := paper.MeasureSolve(t.Context(), 128, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.FwdBytes <= 0 || m.BackBytes <= 0 {
		t.Fatalf("solve phases unmetered: fwd=%d back=%d", m.FwdBytes, m.BackBytes)
	}
	if m.SimTime <= 0 || m.MaxRankMsgs <= 0 {
		t.Fatalf("solve untimed: sim=%v msgs=%d", m.SimTime, m.MaxRankMsgs)
	}
}

func TestMeasureSolveDeterministic(t *testing.T) {
	first, err := paper.MeasureSolve(t.Context(), 128, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := paper.MeasureSolve(t.Context(), 128, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if m.SolveBytes() != first.SolveBytes() || m.SimTime != first.SimTime {
			t.Fatalf("rep %d: %d bytes / %v s vs %d / %v", i, m.SolveBytes(), m.SimTime, first.SolveBytes(), first.SimTime)
		}
	}
}

func TestRunSolveRenderAndCSV(t *testing.T) {
	res, err := paper.RunSolve(t.Context(), 96, []int{4, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.Render(&out)
	if !strings.Contains(out.String(), "NRHS=2") {
		t.Fatalf("render missing header: %q", out.String())
	}
	var csvOut bytes.Buffer
	if err := res.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "n,p,nrhs,fwd_bytes") {
		t.Fatalf("csv shape: %v", lines)
	}
}
