package explorer

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fragdroid/internal/corpus"
)

var updateParity = flag.Bool("update", false, "rewrite testdata/exploration_parity.golden")

// builtinSpecs are the 16 built-in apps: the demo plus the Table I corpus.
func builtinSpecs() []*corpus.AppSpec {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	return specs
}

// digest is a short content hash: the golden pins each observable part of a
// run without checking in megabytes of transcript.
func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// renderRunParity renders one full exploration as per-part digests:
// transcript, counters, first-arrival visits, coverage curve, the evolved
// model's edges and the sensitive-API usages.
func renderRunParity(b *strings.Builder, app string, res *Result) {
	var visits []string
	for n, v := range res.Visits {
		visits = append(visits, fmt.Sprintf("%s %s %s %v", n, v.Method, v.Route.Name, v.Route.Ops))
	}
	sort.Strings(visits)
	for _, part := range []struct{ name, body string }{
		{"transcript", strings.Join(res.Transcript, "\n")},
		{"stats", fmt.Sprintf("%+v", res.Stats)},
		{"visits", strings.Join(visits, "\n")},
		{"curve", fmt.Sprintf("%v", res.Curve)},
		{"edges", fmt.Sprintf("%v", res.Model.Edges())},
		{"usages", fmt.Sprintf("%+v", res.Collector.Usages())},
	} {
		fmt.Fprintf(b, "explore %s %s %s\n", app, part.name, digest(part.body))
	}
}

// TestExplorationParity pins what one exploration does on every built-in
// app — full runs, and both targeted modes on every static API of three
// apps — so engine optimizations must leave every observable output as it
// was. Regenerate with -update only for an intended behaviour change.
func TestExplorationParity(t *testing.T) {
	if testing.Short() {
		t.Skip("explores all 16 built-in apps")
	}
	targeted := map[string]bool{"com.demo.app": true, "com.adobe.reader": true, "com.inditex.zara": true}
	var b strings.Builder
	for _, spec := range builtinSpecs() {
		ex := extractSpec(t, spec)
		cfg := DefaultConfig()
		cfg.MaxTestCases = 4000
		if spec.Package == "com.demo.app" {
			cfg.Inputs = demoInputs()
		}
		res, err := ExploreExtracted(ex, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		renderRunParity(&b, spec.Package, res)
		if !targeted[spec.Package] {
			continue
		}
		for _, api := range targetAPIs(ex) {
			for _, mode := range []string{"undirected", "directed"} {
				run := ExploreTarget
				if mode == "directed" {
					run = ExploreTargetDirected
				}
				tr, err := run(ex, cfg, api)
				if err != nil {
					t.Fatalf("%s %s %s: %v", spec.Package, api, mode, err)
				}
				stats := "-"
				if tr.Result != nil {
					stats = digest(fmt.Sprintf("%+v", tr.Result.Stats))
				}
				fmt.Fprintf(&b, "target %s %s %s triggered=%v skipped=%v stats=%s\n",
					spec.Package, api, mode, tr.Triggered, tr.Skipped, stats)
			}
		}
	}
	golden := filepath.Join("testdata", "exploration_parity.golden")
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("parity golden has %d lines, run produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
}
