package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// The paper's headline numbers every eval-warm round must print.
const (
	wantActPct  = "71.95"
	wantFragPct = "65.86"
	wantAPIs    = "46"
	wantInvocs  = "269"
)

var (
	table1Avg  = regexp.MustCompile(`Average rates: Activities ([0-9.]+)% \(paper [^)]*\)\s+Fragments ([0-9.]+)%`)
	table2Head = regexp.MustCompile(`(\d+) sensitive APIs, (\d+) invocation relations`)
)

// verifyEval checks a `-table1 -table2` output against Table I's averages
// and Table II's API and invocation counts.
func verifyEval(out []byte) error {
	m := table1Avg.FindSubmatch(out)
	if m == nil {
		return fmt.Errorf("eval: no Table I average line")
	}
	if string(m[1]) != wantActPct || string(m[2]) != wantFragPct {
		return fmt.Errorf("eval: Table I averages %s%%/%s%%, want %s%%/%s%%", m[1], m[2], wantActPct, wantFragPct)
	}
	m = table2Head.FindSubmatch(out)
	if m == nil {
		return fmt.Errorf("eval: no Table II summary line")
	}
	if string(m[1]) != wantAPIs || string(m[2]) != wantInvocs {
		return fmt.Errorf("eval: Table II %s APIs / %s invocations, want %s / %s", m[1], m[2], wantAPIs, wantInvocs)
	}
	return nil
}

// directedHeadline is the seed-independent part of the -directedjson
// record: every field but the seed list and the per-target rows.
type directedHeadline struct {
	Targets            int     `json:"targets"`
	UndirectedReached  int     `json:"undirected_reached"`
	DirectedReached    int     `json:"directed_reached"`
	MeanStepRatio      float64 `json:"mean_step_ratio"`
	GapConfirmed       int     `json:"gap_confirmed"`
	GapLiftedUnreached int     `json:"gap_lifted_unreached"`
	GapBlocked         int     `json:"gap_blocked"`
	GapStatic          int     `json:"gap_static"`
}

// wantDirected holds the headline fields of the checked-in BENCH_PR8.json.
var wantDirected = directedHeadline{
	Targets:            193,
	UndirectedReached:  163,
	DirectedReached:    163,
	MeanStepRatio:      0.1234491728757999,
	GapConfirmed:       269,
	GapLiftedUnreached: 44,
	GapBlocked:         0,
	GapStatic:          313,
}

// verifyDirected checks a -directedjson record's headline fields.
func verifyDirected(data []byte) error {
	var got directedHeadline
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("directed: %w", err)
	}
	if got != wantDirected {
		return fmt.Errorf("directed: headline %+v, want %+v", got, wantDirected)
	}
	return nil
}

// verifyLint checks a streamed, store-backed lint summary against the
// positional cache-off run of the same corpus.
func verifyLint(out, ref []byte) error {
	if len(ref) == 0 {
		return fmt.Errorf("lint: empty reference output")
	}
	if !bytes.Equal(out, ref) {
		return fmt.Errorf("lint: summary differs from the positional -cache off run:\n%s\nwant:\n%s", out, ref)
	}
	return nil
}
