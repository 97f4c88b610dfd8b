package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestConfluxdLoad is the `make loadtest` gate: ~50 concurrent clients
// hammer one plan point through the full HTTP stack and the cache must
// collapse the burst to exactly one simulation (asserted via the
// cache-stats endpoint), with every client receiving 200 and the same
// exact answer, and no goroutines leaked once the burst drains. The first
// hits race to fill the entry's memo, and every hit body must be the same
// bytes.
func TestConfluxdLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := testServer(t, nil, nil)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	const clients, total = 50, 300
	var (
		mu     sync.Mutex
		exacts = map[string]int{} // serialized exact tier → count
		hits   = map[string]int{} // body of a hit → count
	)
	rep := bench.RunLoad(t.Context(), clients, total, func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/plan?n=192&p=8&algo=COnfLUX&wait=30s", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("call %d: status %d: %s", i, resp.StatusCode, body)
		}
		exact, _ := exactOf(t, body)
		if len(exact) == 0 || string(exact) == "null" {
			return fmt.Errorf("call %d: no exact tier: %s", i, body)
		}
		mu.Lock()
		exacts[string(exact)]++
		if bytes.Contains(body, []byte(`"exact_status":"hit"`)) {
			hits[string(body)]++
		}
		mu.Unlock()
		return nil
	})
	if rep.Errors > 0 {
		t.Fatalf("%d/%d requests failed; first: %v", rep.Errors, rep.Requests, rep.FirstErr)
	}
	if rep.Requests != total {
		t.Fatalf("%d requests completed, want %d", rep.Requests, total)
	}
	if len(exacts) != 1 {
		t.Fatalf("clients observed %d distinct exact payloads, want 1 (determinism + cache): %v", len(exacts), keysOf(exacts))
	}
	if len(hits) != 1 {
		t.Fatalf("clients observed %d distinct hit bodies, want 1: %v", len(hits), keysOf(hits))
	}

	// The server's own stats must show the singleflight collapse: the whole
	// burst cost one simulation.
	st := s.pl.Stats()
	if st.Simulations != 1 {
		t.Fatalf("burst of %d requests ran %d simulations, want exactly 1 (stats %+v)", total, st.Simulations, st)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits+st.Cache.Joined != int64(total-1) {
		t.Fatalf("cache stats %+v: want 1 miss and %d hits+joins", st.Cache, total-1)
	}
	// And the public endpoint agrees.
	status, _, body := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats endpoint: %d %s", status, body)
	}
	var pub struct {
		Simulations int64 `json:"simulations"`
	}
	if err := json.Unmarshal(body, &pub); err != nil || pub.Simulations != 1 {
		t.Fatalf("/v1/stats reports %d simulations (err %v): %s", pub.Simulations, err, body)
	}

	// No goroutine leak after the burst: transient HTTP and planner
	// goroutines must drain.
	ts.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+3 {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Fatalf("goroutine leak after burst: %d before, %d after drain", before, g)
	}

	t.Logf("load: %d clients, %d requests, qps=%.0f p50=%v p99=%v max=%v",
		rep.Clients, rep.Requests, rep.QPS, rep.P50Lat, rep.P99Lat, rep.MaxLat)
}

func keysOf(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestConfluxdLoadMixedPoints: a burst spread across a few distinct points
// still collapses to one simulation per point.
func TestConfluxdLoadMixedPoints(t *testing.T) {
	s, ts := testServer(t, nil, nil)
	points := []string{
		"n=128&p=4&algo=COnfLUX",
		"n=128&p=4&algo=LibSci",
		"n=160&p=4&algo=COnfLUX",
		"n=128&p=4&algo=COnfLUX&beta=2e-10",
	}
	rep := bench.RunLoad(t.Context(), 16, 120, func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/v1/plan?"+points[i%len(points)]+"&wait=30s", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("call %d: status %d", i, resp.StatusCode)
		}
		return nil
	})
	if rep.Errors > 0 {
		t.Fatalf("%d requests failed; first: %v", rep.Errors, rep.FirstErr)
	}
	if st := s.pl.Stats(); st.Simulations != int64(len(points)) {
		t.Fatalf("%d simulations for %d distinct points (stats %+v)", st.Simulations, len(points), st)
	}
}
