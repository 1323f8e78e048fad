package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const evalOut = `TABLE I: Coverage of Activities and Fragments Detection (measured | paper)
Average rates: Activities 71.95% (paper 71.94%)  Fragments 65.86% (paper 66%)  FiVA 82.09%

TABLE II: Sensitive Operations Detection
46 sensitive APIs, 269 invocation relations, 49% fragment-associated, 9.7% fragment-only
Paper: 46 sensitive APIs, 269 invocations, 49% fragment-associated, >=9.6% missed by Activity-level tools
`

func TestVerifyEvalRejectsMutatedOutput(t *testing.T) {
	if err := verifyEval([]byte(evalOut)); err != nil {
		t.Fatalf("good output rejected: %v", err)
	}
	for _, mut := range [][2]string{
		{"Activities 71.95%", "Activities 71.94%"},
		{"Fragments 65.86%", "Fragments 66.00%"},
		{"46 sensitive APIs, 269 invocation", "45 sensitive APIs, 269 invocation"},
		{"269 invocation relations", "268 invocation relations"},
		{"Average rates:", "Averages:"},
	} {
		bad := strings.Replace(evalOut, mut[0], mut[1], 1)
		if err := verifyEval([]byte(bad)); err == nil {
			t.Errorf("output with %q replaced by %q accepted", mut[0], mut[1])
		}
	}
}

func TestVerifyDirectedRejectsMutatedHeadline(t *testing.T) {
	record := map[string]any{
		"seeds": []int{4, 5, 6}, "targets": 193, "undirected_reached": 163, "directed_reached": 163,
		"mean_step_ratio": 0.1234491728757999, "gap_confirmed": 269, "gap_lifted_unreached": 44,
		"gap_blocked": 0, "gap_static": 313, "target_runs": []any{},
	}
	good, _ := json.Marshal(record)
	if err := verifyDirected(good); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	for field, v := range map[string]any{"directed_reached": 162, "mean_step_ratio": 0.1234491728758, "gap_static": 312} {
		mut := map[string]any{}
		for k, val := range record {
			mut[k] = val
		}
		mut[field] = v
		bad, _ := json.Marshal(mut)
		if err := verifyDirected(bad); err == nil {
			t.Errorf("record with %s = %v accepted", field, v)
		}
	}
	if err := verifyDirected([]byte("{")); err == nil {
		t.Errorf("truncated record accepted")
	}
}

func TestVerifyLintRejectsMutatedSummary(t *testing.T) {
	ref := []byte("apps: 2000 total, 20 packed (not analyzable), 1980 linted\nfindings: 1083 across 832 apps\n")
	if err := verifyLint(bytes.Clone(ref), ref); err != nil {
		t.Fatalf("identical summary rejected: %v", err)
	}
	bad := bytes.Replace(ref, []byte("1083"), []byte("1082"), 1)
	if err := verifyLint(bad, ref); err == nil {
		t.Errorf("mutated summary accepted")
	}
	if err := verifyLint(ref, nil); err == nil {
		t.Errorf("empty reference accepted")
	}
}
