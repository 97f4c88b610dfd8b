package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/plan"
)

// writePlan writes the /v1/plan answer: the bytes json.NewEncoder would write
// for resp, appended in one pass without reflection. A non-finite float,
// which encoding/json refuses, goes to writeJSON for its 500.
// FuzzPlanBody and TestPlanBodiesUnchanged hold the two encoders equal.
// memos[i] is the cache entry's memo of resp.Candidates[i] when that
// candidate is a hit, nil otherwise.
func (s *server) writePlan(w http.ResponseWriter, resp *planResponse, memos []*plan.Memo) {
	body, ok := appendPlanResponse(make([]byte, 0, 4096), resp, memos...)
	if !ok {
		s.writeJSON(w, resp)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// appendPlanResponse appends resp as encoding/json encodes it, trailing
// newline included, and reports false where encoding/json returns an error.
// memos, if given, holds one element per candidate: a hit's entry memo, from
// which that candidate is appended (see memoized), or nil.
func appendPlanResponse(b []byte, resp *planResponse, memos ...*plan.Memo) ([]byte, bool) {
	e := jsonAppender{b: b}
	r := &resp.Request
	e.text(`{"request":{"algorithm":`, string(r.Algorithm))
	e.int(`,"n":`, int64(r.N))
	e.int(`,"p":`, int64(r.P))
	e.float(`,"memory":`, r.Memory)
	e.int(`,"nb":`, int64(r.NB))
	e.float(`,"alpha":`, r.Alpha)
	e.float(`,"beta":`, r.Beta)
	e.int(`,"solve_ranks":`, int64(r.SolveRanks))
	e.int(`,"rhs":`, int64(r.RHS))
	e.int(`,"refine_sweeps":`, int64(r.RefineSweeps))
	if t := &r.Topology; !t.IsZero() {
		e.text(`,"topology":{"Preset":`, t.Preset)
		e.int(`,"RanksPerNode":`, int64(t.RanksPerNode))
		e.int(`,"NodesPerGroup":`, int64(t.NodesPerGroup))
		e.int(`,"Radix":`, int64(t.Radix))
		e.float(`,"Intra":{"Alpha":`, t.Intra.Alpha)
		e.float(`,"Beta":`, t.Intra.Beta)
		e.float(`},"Inter":{"Alpha":`, t.Inter.Alpha)
		e.float(`,"Beta":`, t.Inter.Beta)
		e.float(`},"Global":{"Alpha":`, t.Global.Alpha)
		e.float(`,"Beta":`, t.Global.Beta)
		e.int(`},"Contention":`, int64(t.Contention))
		e.raw(`}`)
	}
	if r.Faults != "" {
		e.text(`,"faults":`, r.Faults)
	}
	e.text(`,"job":`, string(r.Job))
	e.text(`},"objective":`, resp.Objective)
	if resp.Candidates == nil {
		e.raw(`,"candidates":null`)
	} else {
		e.raw(`,"candidates":[`)
		for i := range resp.Candidates {
			if i > 0 {
				e.raw(`,`)
			}
			if i < len(memos) && memos[i] != nil {
				e.memoized(&resp.Candidates[i], memos[i])
			} else {
				e.candidate(&resp.Candidates[i])
			}
		}
		e.raw(`]`)
	}
	e.text(`,"best":{"algorithm":`, string(resp.Best.Algorithm))
	e.text(`,"source":`, resp.Best.Source)
	e.float(`,"value":`, resp.Best.Value)
	e.raw("}}\n")
	return e.b, !e.bad
}

// memoized appends a hit candidate as the bytes in its entry's memo. The
// element depends on the entry alone (its algorithm, model tier and key follow
// from the key, its exact tier is the entry's value), so the first hit encodes
// it and stores a copy, and later hits append that copy and skip the float
// formatting. An element holding a non-finite float is never stored: each hit
// encodes it again and fails as encoding/json does.
func (e *jsonAppender) memoized(c *candidate, memo *plan.Memo) {
	if b := memo.Bytes(); b != nil {
		e.b = append(e.b, b...)
		return
	}
	start, bad := len(e.b), e.bad
	e.bad = false
	e.candidate(c)
	if !e.bad {
		memo.Set(bytes.Clone(e.b[start:]))
	}
	e.bad = e.bad || bad
}

// candidate appends one element of the candidates array.
func (e *jsonAppender) candidate(c *candidate) {
	e.text(`{"algorithm":`, string(c.Algorithm))
	if m := c.Model; m != nil {
		e.float(`,"model":{"per_rank_bytes":`, m.PerRankBytes)
		e.float(`,"total_bytes":`, m.TotalBytes)
		e.float(`,"approx_msgs":`, m.ApproxMsgs)
		e.float(`,"predicted_s":`, m.PredictedSeconds)
		e.raw(`}`)
	}
	if x := c.Exact; x != nil {
		e.int(`,"exact":{"total_bytes":`, x.TotalBytes)
		e.int(`,"algorithm_bytes":`, x.AlgorithmBytes)
		e.float(`,"per_rank_bytes":`, x.PerRankBytes)
		e.int(`,"max_rank_bytes":`, x.MaxRankBytes)
		e.int(`,"msgs":`, x.Msgs)
		e.int(`,"max_rank_msgs":`, x.MaxRankMsgs)
		e.float(`,"makespan_s":`, x.Makespan)
		e.float(`,"crit_busy_s":`, x.CritBusy)
		if x.Grid != "" {
			e.text(`,"grid":`, x.Grid)
		}
		e.raw(`}`)
	}
	e.text(`,"exact_status":`, c.ExactStatus)
	e.text(`,"key":`, c.Key)
	e.raw(`}`)
}

// jsonAppender appends JSON values as encoding/json writes them. Each value
// follows the literal text before it (punctuation and member name).
type jsonAppender struct {
	b   []byte
	bad bool // a non-finite float was met
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }

func (e *jsonAppender) int(lit string, v int64) {
	e.b = strconv.AppendInt(append(e.b, lit...), v, 10)
}

// float follows encoding/json's rule for float64: shortest 'f' form, but
// exponent form below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded (e-9, not e-09). NaN and ±Inf have no encoding.
func (e *jsonAppender) float(lit string, f float64) {
	e.b = append(e.b, lit...)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// plainByte marks the bytes text copies as they are: printable ASCII other
// than `"\<>&`.
var plainByte = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// text appends s as a JSON string. A string of plain bytes is copied between
// quotes; any other string is left to encoding/json, which escapes the HTML
// characters and U+2028/U+2029 and replaces invalid UTF-8.
func (e *jsonAppender) text(lit, s string) {
	e.b = append(e.b, lit...)
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
