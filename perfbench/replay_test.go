package main

import (
	"testing"
)

// The replays must do exactly what the report path does: same output, same
// artifact counters, same session counters.
func TestReplayMatchesReportPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the evaluation in process")
	}
	store := t.TempDir()
	lint := &familyLint{seed: 3, n: 60}
	ref, err := lint.real("", 1)
	if err != nil {
		t.Fatal(err)
	}
	eval := &evalWarm{seed: 1}
	cold, err := eval.real(store, 2) // fills the store
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyEval(cold.out); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rp   replayer
		dir  string
	}{
		{"family-lint", lint, ""},
		{"eval-warm", eval, store},
	} {
		rep, err := tc.rp.replay(tc.dir)
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		base, err := tc.rp.real(tc.dir, 1)
		if err != nil {
			t.Fatalf("%s: report path: %v", tc.name, err)
		}
		if m, _ := compare(rep.inproc, *base); len(m) > 0 {
			t.Errorf("%s: replay disagrees with the report path: %v", tc.name, m)
		}
		if lt := rep.tr.aggregate(); lt.top == 0 {
			t.Errorf("%s: replay recorded no top-level spans", tc.name)
		}
	}
	if rep, _ := lint.replay(""); string(rep.out) != string(ref.out) {
		t.Errorf("family-lint replay output differs from the report path")
	}
}
