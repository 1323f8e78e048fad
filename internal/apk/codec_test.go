package apk_test

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/layout"
	"fragdroid/internal/res"
)

// codecApps builds round-trip fixtures through the real corpus generator
// (the external test package avoids the corpus->apk import cycle): the demo
// app plus the structurally richest Table I app, so fragments, receivers,
// input gates and multi-layout activities all appear in the payload.
func codecApps(t *testing.T) map[string]*apk.App {
	t.Helper()
	apps := make(map[string]*apk.App)
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		apps[spec.Package] = app
	}
	return apps
}

// TestAppCodecRoundTrip checks that DecodeApp(EncodeApp(app)) reproduces
// every corpus app exactly: manifest, layout trees, program classes in
// order, and — the subtle part — the resource table, whose ID numbering the
// decoder must reproduce by re-registering layouts and widget IDs in the
// original order.
func TestAppCodecRoundTrip(t *testing.T) {
	for pkg, app := range codecApps(t) {
		data, err := apk.EncodeApp(app)
		if err != nil {
			t.Fatalf("%s: encode: %v", pkg, err)
		}
		got, err := apk.DecodeApp(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", pkg, err)
		}

		if !reflect.DeepEqual(got.Manifest, app.Manifest) {
			t.Errorf("%s: manifest differs after round trip", pkg)
		}
		if !reflect.DeepEqual(got.Layouts, app.Layouts) {
			t.Errorf("%s: layouts differ after round trip", pkg)
		}
		wantNames := app.Program.Names()
		gotNames := got.Program.Names()
		if !reflect.DeepEqual(gotNames, wantNames) {
			t.Fatalf("%s: class order differs: got %v, want %v", pkg, gotNames, wantNames)
		}
		for _, name := range wantNames {
			if !reflect.DeepEqual(got.Program.Class(name), app.Program.Class(name)) {
				t.Errorf("%s: class %s differs after round trip", pkg, name)
			}
		}
		checkTableParity(t, pkg, got.Resources, app.Resources)
	}
}

// checkTableParity asserts two resource tables are observably identical:
// same entries in the same ID order, and every name resolves to the same ID.
// Downstream analyses key on resource IDs, so any numbering drift between a
// built app and its decoded twin would skew metrics silently.
func checkTableParity(t *testing.T, pkg string, got, want *res.Table) {
	t.Helper()
	ge, we := got.Entries(), want.Entries()
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: resource entries differ:\ngot:  %v\nwant: %v", pkg, ge, we)
	}
	for _, e := range we {
		gid, ok := got.Lookup(e.Kind, e.Name)
		if !ok {
			t.Fatalf("%s: decoded table is missing %s/%s", pkg, e.Kind, e.Name)
		}
		wid, _ := want.Lookup(e.Kind, e.Name)
		if gid != wid {
			t.Fatalf("%s: ID for %s/%s drifted: got %v, want %v", pkg, e.Kind, e.Name, gid, wid)
		}
	}
}

// TestDecodeAppRejectsCorruptPayloads feeds truncations and bit-flips of a
// valid encoding to DecodeApp. Any outcome but a clean decode or an error is
// a bug; panics would take down a whole study run.
func TestDecodeAppRejectsCorruptPayloads(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := apk.DecodeApp(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		// A flip may survive as a value change (e.g. inside a string); it
		// must never panic. Decode errors are the expected common case.
		apk.DecodeApp(mut)
	}
}

// TestLoadRejectsResourceOverflow gives the demo app one extra layout
// carrying MaxPerKind more widget IDs than fit (the app's own @ids come
// first) and loads it through both decoders: the warm-store payload
// (DecodeApp) and the .sapk archive (Load). Both must fail with the table's
// *res.CapacityError rather than number an @id into the layout range.
func TestLoadRejectsResourceOverflow(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	root := &layout.Widget{Type: layout.TypeLinearLayout}
	for n := 0; n < res.MaxPerKind; n++ {
		root.Children = append(root.Children, &layout.Widget{
			Type: layout.TypeTextView, IDRef: fmt.Sprintf("@id/bulk_%d", n),
		})
	}
	big := *app
	big.Layouts = maps.Clone(app.Layouts)
	big.Layouts["zz_bulk"] = &layout.Layout{Name: "zz_bulk", Root: root}

	wantCapacity := func(path string, err error) {
		t.Helper()
		var capErr *res.CapacityError
		if !errors.As(err, &capErr) || capErr.Kind != res.KindID {
			t.Fatalf("%s: err = %v, want *res.CapacityError for kind id", path, err)
		}
	}
	data, err := apk.EncodeApp(&big)
	if err != nil {
		t.Fatal(err)
	}
	_, err = apk.DecodeApp(data)
	wantCapacity("DecodeApp", err)

	arch, err := big.Pack()
	if err != nil {
		t.Fatal(err)
	}
	_, err = apk.Load(arch)
	wantCapacity("Load", err)
}
