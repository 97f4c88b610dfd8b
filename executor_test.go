package conflux

import (
	"errors"
	"testing"

	"repro/internal/mat"
)

// TestWithExecutorUnknownName: a bad executor name fails New with the typed
// sentinel, before any simulation runs.
func TestWithExecutorUnknownName(t *testing.T) {
	for _, name := range []string{"fibers", "auto"} {
		if _, err := New(WithExecutor(name)); !errors.Is(err, ErrUnknownExecutor) {
			t.Fatalf("WithExecutor(%q): got %v, want ErrUnknownExecutor", name, err)
		}
	}
	for _, name := range []string{"goroutines", "events"} {
		if _, err := New(WithExecutor(name)); err != nil {
			t.Fatalf("WithExecutor(%q): %v", name, err)
		}
	}
}

// TestWithExecutorParityAndReporting pins the public executor contract:
// explicit "events" and "goroutines" sessions produce identical factors,
// volume, and simulated time, and every surface that reports the resolved
// executor — Session.Stats, Result, VolumeReport — is stamped with what
// actually ran.
func TestWithExecutorParityAndReporting(t *testing.T) {
	n, p := 96, 6
	a := mat.RandomDiagDominant(n, 7)
	type outcome struct {
		res *Result
		vol *VolumeReport
	}
	runs := map[string]outcome{}
	for _, name := range []string{"goroutines", "events"} {
		s, err := New(WithRanks(p), WithExecutor(name))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Factorize(t.Context(), a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Executor != name || res.Volume.Executor != name {
			t.Fatalf("%s: result stamped %q / report %q", name, res.Executor, res.Volume.Executor)
		}
		if got := s.Stats().Executor; got != name {
			t.Fatalf("%s: Stats().Executor = %q", name, got)
		}
		vol, err := s.CommVolume(t.Context(), n)
		if err != nil {
			t.Fatalf("%s volume: %v", name, err)
		}
		runs[name] = outcome{res: res, vol: vol}
	}
	g, e := runs["goroutines"], runs["events"]
	if d := mat.MaxAbsDiff(g.res.LU, e.res.LU); d != 0 {
		t.Fatalf("factors differ between executors: max abs diff %v", d)
	}
	for i := range g.res.Perm {
		if g.res.Perm[i] != e.res.Perm[i] {
			t.Fatalf("pivot permutations differ at %d", i)
		}
	}
	if g.res.Volume.TotalBytes() != e.res.Volume.TotalBytes() || g.res.Time != e.res.Time {
		t.Fatalf("factorization diverged: %d/%v vs %d/%v",
			g.res.Volume.TotalBytes(), g.res.Time, e.res.Volume.TotalBytes(), e.res.Time)
	}
	if g.vol.TotalBytes() != e.vol.TotalBytes() || g.vol.Time.Makespan != e.vol.Time.Makespan {
		t.Fatalf("volume replay diverged: %d/%v vs %d/%v",
			g.vol.TotalBytes(), g.vol.Time.Makespan, e.vol.TotalBytes(), e.vol.Time.Makespan)
	}
}

// TestWithWorkers pins the public multi-core contract: WithWorkers
// validates its argument, a wide-window session's volume replay is
// bit-identical to the serial one, and the report carries the clamped
// width that actually ran.
func TestWithWorkers(t *testing.T) {
	if _, err := New(WithWorkers(0)); err == nil {
		t.Fatal("WithWorkers(0) accepted")
	}
	n, p := 96, 6
	serial, err := New(WithRanks(p), WithExecutor("events"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := serial.CommVolume(t.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if base.Workers != 1 {
		t.Fatalf("serial replay stamped Workers = %d, want 1", base.Workers)
	}
	for _, w := range []int{2, 4, 64} {
		s, err := New(WithRanks(p), WithExecutor("events"), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.CommVolume(t.Context(), n)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want := min(w, p); rep.Workers != want {
			t.Fatalf("workers=%d: report stamped %d, want %d", w, rep.Workers, want)
		}
		if rep.TotalBytes() != base.TotalBytes() || rep.Time.Makespan != base.Time.Makespan {
			t.Fatalf("workers=%d diverged: %d/%v vs %d/%v",
				w, rep.TotalBytes(), rep.Time.Makespan, base.TotalBytes(), base.Time.Makespan)
		}
	}
}
