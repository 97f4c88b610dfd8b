package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/costmodel"
)

// TestMain runs the command itself when the test binary is re-executed with
// CONFLUXBENCH_MAIN=1, so the exit-code tests see what a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("CONFLUXBENCH_MAIN") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// confluxbench runs the command with args and returns its exit code, stdout
// and stderr.
func confluxbench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CONFLUXBENCH_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// An unknown experiment, a non-positive cell and a negative or non-finite
// machine parameter are usage errors: exit 2, nothing measured.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "tabel2"},
		{"-exp", "cell", "-cellN", "0", "-cellP", "4"},
		{"-exp", "cell", "-cellN", "64", "-cellP", "-1"},
		{"-exp", "cell"},
		{"-exp", "cell", "-cellN", "16", "-cellP", "4", "-alpha", "-1"},
		{"-exp", "cell", "-cellN", "16", "-cellP", "4", "-beta", "NaN"},
		{"-exp", "cell", "-cellN", "16", "-cellP", "4", "-alpha", "Inf"},
	} {
		code, stdout, stderr := confluxbench(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and only an error message", args, code, stdout, stderr)
		}
	}
	if _, _, stderr := confluxbench(t, "-exp", "tabel2"); !strings.Contains(stderr, "table2") {
		t.Errorf("unknown experiment: stderr %q does not list the valid names", stderr)
	}
}

// A cell prints Table 2's heading and one row per engine, in the table2
// layout.
func TestCell(t *testing.T) {
	code, stdout, stderr := confluxbench(t, "-exp", "cell", "-cellN", "64", "-cellP", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "Total comm. volume for N=64, P=4") {
		t.Fatalf("want a heading and four rows, got:\n%s", stdout)
	}
	for _, l := range lines[1:] {
		if strings.Contains(l, "ERROR") || !strings.Contains(l, "grid") {
			t.Fatalf("row %q", l)
		}
	}
}

// A failed measurement is the cell's error, which realMain turns into exit 1.
func TestCellFailedMeasurement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runCell(ctx, bench.Harness{Machine: costmodel.DefaultMachine()}, 64, 4); err == nil {
		t.Fatal("a canceled cell returned no error")
	}
}
