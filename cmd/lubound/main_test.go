package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed with
// LUBOUND_MAIN=1, so the exit-code tests see what a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("LUBOUND_MAIN") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// lubound runs the command with args and returns its exit code, stdout and
// stderr.
func lubound(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LUBOUND_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// A non-positive -n or -p, a negative or non-finite -m and an unknown
// kernel are usage errors: exit 2, no bound printed.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-4"},
		{"-p", "0"},
		{"-p", "-1"},
		{"-m", "-1"},
		{"-m", "NaN"},
		{"-m", "Inf"},
		{"-kernel", "qr"},
	} {
		code, stdout, stderr := lubound(t, args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and only an error message", args, code, stdout, stderr)
		}
	}
}

// Each kernel prints its heading and finite bounds.
func TestKernels(t *testing.T) {
	for _, kernel := range []string{"lu", "mmm", "cholesky"} {
		code, stdout, stderr := lubound(t, "-kernel", kernel, "-n", "1024", "-p", "64")
		if code != 0 || !strings.HasPrefix(stdout, "kernel="+kernel+" N=1024 P=64 M=") {
			t.Fatalf("%s: exit %d, stdout %q, stderr %q", kernel, code, stdout, stderr)
		}
		if strings.Contains(stdout, "NaN") || strings.Contains(stdout, "Inf") {
			t.Fatalf("%s: a bound is not finite:\n%s", kernel, stdout)
		}
	}
}
