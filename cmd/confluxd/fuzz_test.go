package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	conflux "repro"
	"repro/internal/plan"
	"repro/internal/trace"
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

// FuzzPlanBody holds the /v1/plan appender to encoding/json: for any
// planResponse, appendPlanResponse writes exactly the bytes
// json.NewEncoder(&buf).Encode writes, or both refuse it. Strings take every
// field of string type, floats every float field, in turn; shape picks the
// topology (zero or not), the candidate list (nil, empty, one, two) and
// whether each candidate has a model tier, an exact tier and a grid. x4
// only reaches fields that shape can leave out, so a non-finite value there
// must be refused exactly when its field is written.
func FuzzPlanBody(f *testing.F) {
	f.Add("COnfLUX", "bytes", "plan/v1|job=volume", 0.0, math.Copysign(0, -1), 5e-324, 1e-7, int64(128), uint8(0xff))
	f.Add(`<>&"\`, "\x00\x1f\x7f", "\xff\xfe", 9.99e20, 1e21, 2.2250738585072014e-308, 1e-6, int64(-1), uint8(0x1a))
	f.Add("\u2028\u2029", "é", "", 1.0/3, -1e-9, 123456789.0, 0.5, int64(math.MinInt64), uint8(0x0d))
	f.Add("hier", "time", "a", math.NaN(), 1.0, 2.0, 3.0, int64(4), uint8(0x00))
	f.Add("hier", "time", "a", 1.0, 2.0, 3.0, math.Inf(1), int64(4), uint8(0x1f))
	f.Add("hier", "time", "a&b", 1.0, 2.0, 3.0, math.Inf(-1), int64(4), uint8(0x06))
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, x1, x2, x3, x4 float64, i int64, shape uint8) {
		resp := fuzzResponse(s1, s2, s3, x1, x2, x3, x4, i, shape)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(resp)
		got, ok := appendPlanResponse(nil, resp)
		if ok != (err == nil) {
			t.Fatalf("appender ok=%v, encoding/json err=%v for %+v", ok, err, resp)
		}
		if ok && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appender\n%s\nencoding/json\n%s", got, want.Bytes())
		}
	})
}

// fuzzResponse builds FuzzPlanBody's response from its inputs.
func fuzzResponse(s1, s2, s3 string, x1, x2, x3, x4 float64, i int64, shape uint8) *planResponse {
	resp := &planResponse{Objective: s2}
	resp.Request = plan.Request{
		Algorithm: conflux.Algorithm(s1), N: int(i), P: int(i >> 3), Memory: x1, NB: int(-i),
		Alpha: x2, Beta: x3, SolveRanks: int(i >> 9), RHS: int(i & 0xff), RefineSweeps: int(i % 7),
		Faults: s3, Job: plan.Job(s2),
	}
	if shape&1 != 0 {
		resp.Request.Topology = conflux.Topology{
			Preset: s3, RanksPerNode: int(i), NodesPerGroup: int(i >> 1), Radix: int(i >> 2),
			Intra: trace.Machine{Alpha: x4, Beta: x1}, Inter: trace.Machine{Alpha: x2, Beta: x3},
			Global: trace.Machine{Alpha: x3, Beta: x4}, Contention: int(i & 1),
		}
	}
	switch shape >> 1 & 3 {
	case 1:
		resp.Candidates = []candidate{}
	case 2, 3:
		for k := range int(shape>>1&3) - 1 {
			c := candidate{Algorithm: conflux.Algorithm(s1), ExactStatus: s2, Key: s3}
			if shape&8 != 0 {
				c.Model = &plan.Model{PerRankBytes: x4, TotalBytes: x1, ApproxMsgs: x2, PredictedSeconds: x3}
			}
			if shape&16 != 0 {
				c.Exact = &plan.Exact{
					TotalBytes: i, AlgorithmBytes: -i, PerRankBytes: x2, MaxRankBytes: i >> 4,
					Msgs: i >> 5, MaxRankMsgs: int64(k), Makespan: x4, CritBusy: x3,
				}
				if shape&32 != 0 {
					c.Exact.Grid = s1
				}
			}
			resp.Candidates = append(resp.Candidates, c)
		}
	}
	resp.Best.Algorithm, resp.Best.Source, resp.Best.Value = conflux.Algorithm(s3), s1, x2
	return resp
}

// TestPlanBodyCoversFields sets every field of a planResponse, through its
// candidates' model and exact tiers, to a value of its own by reflection and
// requires the appender to write what encoding/json writes: a field added to
// any of these types fails here until the appender writes it too.
func TestPlanBodyCoversFields(t *testing.T) {
	var resp planResponse
	seq := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		seq++
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", seq))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(seq))
		case reflect.Float64:
			v.SetFloat(float64(seq) + 0.25)
		default:
			t.Fatalf("no fill for %s: teach this test and appendPlanResponse the new field", v.Type())
		}
	}
	fill(reflect.ValueOf(&resp).Elem())
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	got, ok := appendPlanResponse(nil, &resp)
	if !ok || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appender (ok=%v)\n%s\nencoding/json\n%s", ok, got, want.Bytes())
	}
}
