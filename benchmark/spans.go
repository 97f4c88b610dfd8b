package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program under test.
// Spans are recorded from the benchmark's own files, around public calls;
// the program is not instrumented.
type span struct {
	Name     string
	Workload string
	Parent   int // index of the causing span, -1 for a root
	Start    time.Duration
	End      time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code path at no cost.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// coverage returns, over the root spans called name, the share of their
// duration their direct children cover: a root's self time is the rest.
func (t *tracer) coverage(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var root, children time.Duration
	for i, s := range t.spans {
		if s.Parent != -1 || s.Name != name {
			continue
		}
		root += s.End - s.Start
		for _, c := range t.spans {
			if c.Parent == i {
				children += c.End - c.Start
			}
		}
	}
	if root == 0 {
		return 0
	}
	return float64(children) / float64(root)
}

// durations returns the duration in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Children nest under their parent by time.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload},
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
