package report

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/callgraph"
	"fragdroid/internal/device"
	"fragdroid/internal/paths"
	"fragdroid/internal/robotium"
)

// TestGapClassificationClosesCeiling pins the closed loop over the static
// ceiling: every one of the 313 static invocation relations falls into
// exactly one bucket, per-app sums equal the per-app ceiling, and the
// confirmed bucket equals the 269 dynamically observed relations.
func TestGapClassificationClosesCeiling(t *testing.T) {
	ev := evaluation(t)
	g := ev.BuildGapClassification()
	c := ev.BuildCeiling()
	if len(g.Rows) != len(c.Rows) {
		t.Fatalf("rows = %d, ceiling rows = %d", len(g.Rows), len(c.Rows))
	}
	for i, r := range g.Rows {
		cr := c.Rows[i]
		if r.Package != cr.Package {
			t.Fatalf("row %d: package %s vs ceiling %s", i, r.Package, cr.Package)
		}
		if r.Static() != cr.StaticInvocations {
			t.Errorf("%s: buckets sum to %d, static ceiling %d",
				r.Package, r.Static(), cr.StaticInvocations)
		}
		if r.Confirmed != cr.DynInvocations {
			t.Errorf("%s: confirmed %d, dynamic invocations %d",
				r.Package, r.Confirmed, cr.DynInvocations)
		}
	}
	tot := g.Totals()
	if tot.Static() != 313 {
		t.Errorf("total static relations = %d, want 313", tot.Static())
	}
	if tot.Confirmed != 269 {
		t.Errorf("total confirmed relations = %d, want 269", tot.Confirmed)
	}
	if tot.Blocked != 0 {
		t.Errorf("total blocked relations = %d, want 0 on the paper corpus", tot.Blocked)
	}
	out := RenderGapClassification(g)
	if !strings.Contains(out, "GAP CLASSIFICATION") || !strings.Contains(out, "TOTAL") {
		t.Errorf("RenderGapClassification output malformed:\n%s", out)
	}
}

// TestPathSoundness is the companion of TestCeilingSoundness one level up the
// tooling: dynamic ⊆ lifted ⊆ static. Every dynamically confirmed (API,
// component) relation must have at least one statically lifted route, and at
// least one of those routes must replay on a fresh device session and fire
// the API from that component — the lifted paths are actionable repro
// scripts, not just path existence claims.
func TestPathSoundness(t *testing.T) {
	for _, ar := range evaluation(t).Apps {
		ex := ar.Result.Extraction
		plans := make(map[string]paths.SitePlan)
		p := paths.New(ex, paths.DefaultConfig())
		for _, sp := range p.PlanAll() {
			plans[sp.Target.API+"|"+sp.Target.Class] = sp
		}
		for _, u := range ar.Result.Collector.Usages() {
			for _, cls := range u.Classes {
				sp, ok := plans[u.API+"|"+cls]
				if !ok {
					t.Errorf("%s: confirmed relation (%s, %s) has no site plan",
						ar.Row.Package, u.API, cls)
					continue
				}
				if !sp.Liftable() {
					t.Errorf("%s: confirmed relation (%s, %s) lifted no route (blocked: %v)",
						ar.Row.Package, u.API, cls, sp.Blocked)
					continue
				}
				if !replaysAndFires(ar.App, sp) {
					t.Errorf("%s: no lifted route of (%s, %s) replays and fires the API",
						ar.Row.Package, u.API, cls)
				}
			}
		}
	}
}

// replaysAndFires replays the plan's routes on fresh devices until one fires
// the target API attributed to the target component.
func replaysAndFires(app *apk.App, sp paths.SitePlan) bool {
	for _, r := range sp.Routes {
		fired := false
		dev := device.New(app, device.Options{Monitor: func(e device.SensitiveEvent) {
			if e.API == sp.Target.API && callgraph.OuterComponent(e.Class) == sp.Target.Class {
				fired = true
			}
		}})
		robotium.Run(dev, r.Script, robotium.Options{})
		if fired {
			return true
		}
	}
	return false
}

// TestDirectedStudyEconomy runs the corpus-wide directed-vs-undirected
// comparison: directed reaches every target the undirected search reaches,
// skipped targets are exactly the dynamically unreachable ones the plan
// blocked, and the mean steps-to-target ratio meets the ≤0.5× bar.
func TestDirectedStudyEconomy(t *testing.T) {
	cfg := DefaultEvalConfig()
	s, err := RunDirectedStudy(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("RunDirectedStudy: %v", err)
	}
	if len(s.Targets) == 0 {
		t.Fatal("study produced no targets")
	}
	for _, tr := range s.Targets {
		if tr.UndirectedReached && !tr.DirectedReached {
			t.Errorf("%s %s: undirected reached the target but directed did not",
				tr.Package, tr.API)
		}
		if tr.DirectedSkipped && tr.UndirectedReached {
			t.Errorf("%s %s: directed skipped a dynamically reachable target",
				tr.Package, tr.API)
		}
	}
	if r := s.MeanStepRatio(); r > 0.5 {
		t.Errorf("mean step ratio = %.3f, want <= 0.5", r)
	}
	out := RenderDirectedStudy(s)
	if !strings.Contains(out, "DIRECTED STUDY") || !strings.Contains(out, "mean step ratio") {
		t.Errorf("RenderDirectedStudy output malformed:\n%s", out)
	}
	b := BuildDirectedBench(s, evaluation(t).BuildGapClassification())
	if b.GapStatic != 313 || b.GapConfirmed != 269 {
		t.Errorf("bench gap totals = %d/%d, want 313/269", b.GapStatic, b.GapConfirmed)
	}
}

// TestDirectedStudyDeterministic pins that the study, which runs each target
// once per mode, repeats exactly: two independent runs, each on its own
// artifact cache, must agree on every target's steps, reached flags and skip
// marks.
func TestDirectedStudyDeterministic(t *testing.T) {
	run := func() *DirectedStudy {
		t.Helper()
		cfg := DefaultEvalConfig()
		cfg.Cache = artifact.NewCache()
		s, err := RunDirectedStudy(cfg, []int64{1, 2, 3})
		if err != nil {
			t.Fatalf("RunDirectedStudy: %v", err)
		}
		return s
	}
	first, second := run(), run()
	if len(first.Targets) == 0 {
		t.Fatal("study produced no targets")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two directed study runs differ")
	}
}

// TestDirectedBenchMatchesCheckedIn pins the directed study per target: the
// bench summary for seeds 1–3, marshalled as `fragstudy -directed
// -directedjson` writes it, must equal the checked-in BENCH_PR8.json byte for
// byte — every target's step means, reached flags and skip marks, not only
// the headline totals.
func TestDirectedBenchMatchesCheckedIn(t *testing.T) {
	s, err := RunDirectedStudy(DefaultEvalConfig(), []int64{1, 2, 3})
	if err != nil {
		t.Fatalf("RunDirectedStudy: %v", err)
	}
	got, err := json.MarshalIndent(BuildDirectedBench(s, evaluation(t).BuildGapClassification()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("../../BENCH_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("bench differs from BENCH_PR8.json at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("bench has %d lines, BENCH_PR8.json %d", len(gl), len(wl))
	}
}
