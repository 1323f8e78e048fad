package device

import (
	"reflect"
	"testing"

	"fragdroid/internal/corpus"
)

// multiHostSpec wires one fragment into two activities ("a Fragment may be
// used in one or more Activities", §V-A) and uses the support-library
// FragmentManager on one of them.
func multiHostSpec() *corpus.AppSpec {
	return &corpus.AppSpec{
		Package: "com.multi",
		Activities: []corpus.ActivitySpec{
			{
				Name: "Main", Launcher: true,
				Wires: []corpus.FragmentWire{{Fragment: "Shared", Kind: corpus.WireTxnOnCreate}},
			},
			{
				Name: "Second", SupportFM: true,
				Wires: []corpus.FragmentWire{{Fragment: "Shared", Kind: corpus.WireTxnButton}},
			},
		},
		Fragments: []corpus.FragmentSpec{{Name: "Shared"}},
		Transition: []corpus.Transition{
			{From: "Main", To: "Second", Kind: corpus.TransButton},
		},
	}
}

func TestSharedFragmentAcrossHosts(t *testing.T) {
	app, err := corpus.BuildApp(multiHostSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	dump, _ := d.Dump()
	if !reflect.DeepEqual(dump.FMFragments, []string{"com.multi.Shared"}) {
		t.Fatalf("Main FMFragments = %v", dump.FMFragments)
	}
	// Navigate to the support-FM activity and commit the same fragment there.
	if err := d.Click(corpus.NavButtonRef("Main", "Second")); err != nil {
		t.Fatal(err)
	}
	dump, _ = d.Dump()
	if len(dump.FMFragments) != 0 {
		t.Fatalf("Second should start empty, got %v", dump.FMFragments)
	}
	if err := d.Click(corpus.TabButtonRef("Second", "Shared")); err != nil {
		t.Fatal(err)
	}
	dump, _ = d.Dump()
	if !reflect.DeepEqual(dump.FMFragments, []string{"com.multi.Shared"}) {
		t.Fatalf("Second FMFragments = %v", dump.FMFragments)
	}
	// The support-FM activity allows reflection too.
	if err := d.Reflect("com.multi.Shared", corpus.ContainerRef("Second")); err != nil {
		t.Fatalf("Reflect on support-FM activity: %v", err)
	}
}

func TestReflectIntoNonContainer(t *testing.T) {
	app, err := corpus.BuildApp(multiHostSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	var re *ReflectionError
	err = d.Reflect("com.multi.Shared", "@id/main_root")
	if !asReflection(err, &re) {
		t.Fatalf("reflect into non-container = %v", err)
	}
	err = d.Reflect("com.multi.Main", corpus.ContainerRef("Main"))
	if !asReflection(err, &re) {
		t.Fatalf("reflect an activity class = %v", err)
	}
}

func asReflection(err error, target **ReflectionError) bool {
	re, ok := err.(*ReflectionError)
	if ok {
		*target = re
	}
	return ok
}

func TestDumpHelperViews(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click(corpus.NavButtonRef("Main", "Login")); err != nil {
		t.Fatal(err)
	}
	dump, _ := d.Dump()
	click := dump.ClickableRefs()
	edit := dump.EditableRefs()
	visSet := make(map[string]bool)
	for _, w := range dump.Widgets {
		if w.Visible {
			visSet[w.Ref] = true
		}
	}
	if len(visSet) == 0 || len(click) == 0 || len(edit) != 1 {
		t.Fatalf("helpers: vis=%d click=%d edit=%v", len(visSet), len(click), edit)
	}
	// Clickable and editable refs are all visible.
	for _, r := range append(append([]string(nil), click...), edit...) {
		if !visSet[r] {
			t.Errorf("%s clickable/editable but not visible", r)
		}
	}
	if d.App() != app {
		t.Error("App() accessor broken")
	}
}
