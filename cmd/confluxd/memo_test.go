package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/plan"
)

// planHotPaths are the plan_hot workload's 24 points (N x P x topology x
// job, every engine) as /v1/plan paths.
func planHotPaths() []string {
	var paths []string
	for _, n := range []int{128, 256} {
		for _, p := range []int{16, 64} {
			for _, topo := range []string{"", "&topology=hier-contended", "&topology=dragonfly-contended"} {
				for _, job := range []string{"volume", "solve"} {
					paths = append(paths, fmt.Sprintf("/v1/plan?n=%d&p=%d&algo=all&job=%s&wait=60s%s", n, p, job, topo))
				}
			}
		}
	}
	return paths
}

// asHit is what a computed answer's body reads as once every candidate is a
// hit: the same bytes, encoded afresh, with each exact_status "hit".
func asHit(computed string) string {
	return strings.ReplaceAll(computed, `"exact_status":"computed"`, `"exact_status":"hit"`)
}

// TestPlanHitMemoBytes: at every plan_hot point, the first hit (which fills
// the memos), a second, a third and a burst of concurrent hits all write the
// bytes of a fresh encode: the computed answer with its statuses read as
// hits. A second server whose first hits all race to fill the same memos
// writes them too.
func TestPlanHitMemoBytes(t *testing.T) {
	h := stubServer(t, 0, nil, nil).routes()
	raced := stubServer(t, 0, nil, nil).routes()
	for _, path := range planHotPaths() {
		computed := serve(h, path)
		if n := strings.Count(computed, `"exact_status":`); !strings.Contains(computed, " 200\n") || n == 0 ||
			strings.Count(computed, `"exact_status":"computed"`) != n {
			t.Fatalf("not an answer with every candidate computed: %s", computed)
		}
		want := asHit(computed)
		for i := 1; i <= 3; i++ {
			if got := serve(h, path); got != want {
				t.Fatalf("hit %d differs from a fresh encode:\ngot  %s\nwant %s", i, got, want)
			}
		}
		serve(raced, path)
		const clients = 8
		got := make([]string, 2*clients)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i < clients {
					got[i] = serve(h, path)
				} else {
					got[i] = serve(raced, path)
				}
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Fatalf("concurrent hit %d differs from a fresh encode:\ngot  %s\nwant %s", i, g, want)
			}
		}
	}
}

// TestPlanHitMemoEvicted: a memo dies with its cache entry. At capacity 1,
// another point evicts the entry; the key is computed again by a runner that
// now answers differently, and its hits carry the new answer.
func TestPlanHitMemoEvicted(t *testing.T) {
	var runs atomic.Int64
	stub := stubRunner(0, nil)
	s := stubServer(t, 0, nil, func(o *plan.Options) {
		o.MaxEntries = 1
		o.Runner = func(ctx context.Context, req plan.Request, others []plan.Machine) (plan.Answers, error) {
			ans, err := stub(ctx, req, others)
			run := runs.Add(1)
			for _, xs := range ans {
				for _, x := range xs {
					x.TotalBytes += 1000 * run
				}
			}
			return ans, err
		}
	})
	h := s.routes()
	const a, b = "/v1/plan?n=128&p=4&algo=COnfLUX", "/v1/plan?n=160&p=4&algo=COnfLUX"
	first := asHit(serve(h, a))
	for range 2 {
		if got := serve(h, a); got != first {
			t.Fatalf("hit differs from a fresh encode:\ngot  %s\nwant %s", got, first)
		}
	}
	serve(h, b)
	again := asHit(serve(h, a))
	if again == first {
		t.Fatalf("recomputed answer equals the evicted one: %s", again)
	}
	for range 2 {
		if got := serve(h, a); got != again {
			t.Fatalf("hit after eviction differs from the recomputed answer:\ngot  %s\nwant %s", got, again)
		}
	}
	if ev := s.pl.Stats().Cache.Evictions; ev != 2 {
		t.Fatalf("%d evictions, want 2", ev)
	}
}

// TestPlanHitMemoNonFinite: an answer holding a NaN is never memoized, so
// every hit encodes it again and is the same 500 as the computed answer.
func TestPlanHitMemoNonFinite(t *testing.T) {
	s := stubServer(t, 0, nil, nil)
	h := s.routes()
	const path = "/v1/plan?n=100&p=4&algo=LibSci"
	want := serve(h, path)
	if !strings.Contains(want, " 500\n") {
		t.Fatalf("NaN makespan not refused: %s", want)
	}
	for i := 1; i <= 3; i++ {
		if got := serve(h, path); got != want {
			t.Fatalf("hit %d:\ngot  %s\nwant %s", i, got, want)
		}
	}
	req := canonicalRequests(t, s, path[len("/v1/plan?"):])[0]
	_, outcome, memo, err := s.pl.EvaluateKeyed(t.Context(), req, req.Key(), 0)
	if err != nil || outcome != plan.OutcomeHit {
		t.Fatalf("%s: outcome %s, err %v; want a hit", path, outcome, err)
	}
	if b := memo.Bytes(); b != nil {
		t.Fatalf("%s: memo holds %s", path, b)
	}
}

// TestPlanHitMemoEqualKeys: a memo is filled by whichever request hits its
// entry first and read by every request with that key, so requests with equal
// keys must encode equal candidates, model tier included. Each group spells
// one point several ways. Wherever two spellings give a candidate equal keys,
// its model tiers must be equal; where every candidate's keys are equal, a
// server that memoized the first spelling must answer the second with the
// bytes a fresh server encodes for it. Spellings whose keys differ today (nb,
// memory) are checked as soon as a key stops telling them apart.
func TestPlanHitMemoEqualKeys(t *testing.T) {
	probe := stubServer(t, 0, nil, nil)
	explicit := func(q string) string {
		def := canonicalRequests(t, probe, q)[0]
		if def.Memory == 0 || def.SolveRanks == 0 || def.RHS == 0 {
			t.Fatalf("canonical request %+v leaves a default unresolved", def)
		}
		return fmt.Sprintf("%s&memory=%s&solve_ranks=%d&rhs=%d&alpha=%s&beta=%s", q,
			strconv.FormatFloat(def.Memory, 'g', -1, 64), def.SolveRanks, def.RHS,
			strconv.FormatFloat(def.Alpha, 'g', -1, 64), strconv.FormatFloat(def.Beta, 'g', -1, 64))
	}
	for _, q := range []string{"n=128&p=16", "n=256&p=64&job=solve&topology=hier-contended", "n=96&p=8&nb=16&refine=1"} {
		spellings := []string{q, explicit(q), q + "&nb=256", q + "&memory=1e6"}
		for i, a := range spellings {
			for _, b := range spellings[i+1:] {
				ra, rb := canonicalRequests(t, probe, a), canonicalRequests(t, probe, b)
				sameKeys := true
				for k := range ra {
					if ra[k].Key() != rb[k].Key() {
						sameKeys = false
						continue
					}
					ma, oka := plan.ModelFor(ra[k])
					mb, okb := plan.ModelFor(rb[k])
					if ma != mb || oka != okb {
						t.Fatalf("%q and %q: one key, two model tiers for %s: %+v, %+v", a, b, ra[k].Algorithm, ma, mb)
					}
				}
				if !sameKeys {
					continue
				}
				memoized := stubServer(t, 0, nil, nil).routes()
				serve(memoized, "/v1/plan?"+a)
				serve(memoized, "/v1/plan?"+a)
				got := serve(memoized, "/v1/plan?"+b)
				fresh := stubServer(t, 0, nil, nil).routes()
				want := asHit(serve(fresh, "/v1/plan?"+b))
				if !strings.Contains(want, " 200\n") {
					t.Fatalf("fresh answer: %s", want)
				}
				if got != want {
					t.Fatalf("%q answered from %q's memos:\ngot  %s\nwant %s", b, a, got, want)
				}
			}
		}
	}
}

// canonicalRequests returns the canonical request of each candidate the
// query asks for, as handlePlan builds them.
func canonicalRequests(t *testing.T, s *server, query string) []plan.Request {
	t.Helper()
	template, algos, _, _, herr := s.parseParams(&http.Request{URL: &url.URL{RawQuery: query}})
	if herr != nil {
		t.Fatalf("%q: %s", query, herr.msg)
	}
	var reqs []plan.Request
	for _, a := range algos {
		req := template
		req.Algorithm = a
		req, err := req.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	return reqs
}
