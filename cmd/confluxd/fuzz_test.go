package main

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzPlanParams feeds arbitrary query strings to parseParams: it never
// panics, and every request it accepts, completed with each candidate
// algorithm, canonicalizes to a fixed point — Canonicalize of the canonical
// request returns it unchanged, under the same Key.
func FuzzPlanParams(f *testing.F) {
	for _, q := range []string{
		"n=64&p=4",
		"n=4096&p=64&algo=COnfLUX&job=solve&solve_ranks=16&rhs=8&refine=2",
		"n=512&p=12&memory=1e5&alpha=0&beta=1e-9&nb=32&topology=dragonfly-contended",
		"n=100&p=8&algo=Cholesky&objective=time&wait=0",
		"n=64&p=4&alpha=NaN&memory=-0",
		"n=1&p=1&memory=0x1p-1074&beta=4.9e-324",
		"n=64&p=4&n=-1&p=%zz&rhs=4096",
	} {
		f.Add(q)
	}
	s := &server{cfg: defaultServerConfig()}
	f.Fuzz(func(t *testing.T, query string) {
		template, algos, _, _, herr := s.parseParams(&http.Request{URL: &url.URL{RawQuery: query}})
		if herr != nil {
			return
		}
		for _, a := range algos {
			req := template
			req.Algorithm = a
			c1, err := req.Canonicalize()
			if err != nil {
				t.Fatalf("%q: accepted request %+v does not canonicalize: %v", query, req, err)
			}
			c2, err := c1.Canonicalize()
			if err != nil || c2 != c1 || c2.Key() != c1.Key() {
				t.Fatalf("%q: canonical request is no fixed point:\n%+v\n%+v (err %v)", query, c1, c2, err)
			}
		}
	})
}
