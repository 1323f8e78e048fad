package callgraph_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

var update = flag.Bool("update", false, "rewrite the call-graph parity goldens under testdata/")

// builtinSpecs returns the 16 built-in apps: the demo app and the 15 Table I
// apps.
func builtinSpecs() []*corpus.AppSpec {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	return specs
}

// renderReach writes a reachability result in a stable text form.
func renderReach(b *strings.Builder, label string, r *callgraph.Reach) {
	fmt.Fprintf(b, "%s activities: %s\n", label, strings.Join(r.ActivityList(), " "))
	fmt.Fprintf(b, "%s fragments: %s\n", label, strings.Join(r.FragmentList(), " "))
	fmt.Fprintf(b, "%s receivers: %s\n", label, strings.Join(r.ReceiverList(), " "))
	methods := make([]string, 0, len(r.Methods))
	for m := range r.Methods {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	fmt.Fprintf(b, "%s methods: %s\n", label, strings.Join(methods, " "))
	for _, api := range r.APIList() {
		fmt.Fprintf(b, "%s api %s: %s\n", label, api, strings.Join(r.APIs[api], " "))
	}
	fmt.Fprintf(b, "%s invocations: %d\n", label, r.Invocations())
}

// TestBuiltinGraphParity pins the call graph of every built-in app to
// goldens captured before the graph was interned to integer node IDs: the
// Encode bytes (which spell out the node, edge and site insertion orders)
// and the launcher-only and forced-start reachability results.
func TestBuiltinGraphParity(t *testing.T) {
	var reach strings.Builder
	for _, spec := range builtinSpecs() {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		data, err := ex.Graph().Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", spec.Package, err)
		}
		path := filepath.Join("testdata", "graphs", spec.Package+".bin")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: Encode bytes differ from %s", spec.Package, path)
		}
		fmt.Fprintf(&reach, "== %s\n", spec.Package)
		renderReach(&reach, "launcher", ex.LauncherReach)
		renderReach(&reach, "static", ex.StaticReach)
	}
	path := filepath.Join("testdata", "reach.golden")
	if *update {
		if err := os.WriteFile(path, []byte(reach.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if reach.String() != string(want) {
		t.Errorf("reachability drifted from %s:\n%s", path, reach.String())
	}
}

// TestBuiltinGraphRoundTrip checks that Decode(Encode(g)) reproduces every
// order-sensitive accessor of each built-in app's graph.
func TestBuiltinGraphRoundTrip(t *testing.T) {
	for _, spec := range builtinSpecs() {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		g := callgraph.Build(app, nil)
		data, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := callgraph.Decode(data, app.Program)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Package, err)
		}
		if !reflect.DeepEqual(back.Nodes(), g.Nodes()) {
			t.Errorf("%s: Nodes differ after round trip", spec.Package)
		}
		if !reflect.DeepEqual(back.Edges(), g.Edges()) {
			t.Errorf("%s: Edges differ after round trip", spec.Package)
		}
		if !reflect.DeepEqual(back.Sites(), g.Sites()) {
			t.Errorf("%s: Sites differ after round trip", spec.Package)
		}
		gn, ge := g.Size()
		bn, be := back.Size()
		if gn != bn || ge != be {
			t.Errorf("%s: Size %d/%d, decoded %d/%d", spec.Package, gn, ge, bn, be)
		}
		for _, n := range g.Nodes() {
			if !reflect.DeepEqual(back.EdgesFrom(n), g.EdgesFrom(n)) {
				t.Errorf("%s: EdgesFrom(%s) differs after round trip", spec.Package, n)
			}
		}
		again, err := back.Encode()
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded graph changed the bytes", spec.Package)
		}
	}
}
