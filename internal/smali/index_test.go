package smali_test

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/smali"
)

// checkAgainstOracles asserts that every indexed query of p answers exactly
// as the scanning oracle does, for every class, every '$'-prefix of a class
// name, a name that is not in the program, every framework base and every
// method name the program declares.
func checkAgainstOracles(t *testing.T, label string, p *smali.Program) {
	t.Helper()
	names := p.Names()
	queries := append([]string(nil), names...)
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			if n[i] == '$' {
				queries = append(queries, n[:i])
			}
		}
	}
	queries = append(queries, "no.such.Class", "")
	bases := append([]string{
		smali.ClassActivity, smali.ClassFragment, smali.ClassSupportFragment,
		smali.ClassFragmentActivity, smali.ClassReceiver, smali.ClassObject,
	}, names...)
	methods := []string{"onCreate", "no_such_method"}
	for _, n := range names {
		for _, m := range p.Class(n).Methods {
			methods = append(methods, m.Name)
		}
	}

	for _, q := range queries {
		if got, want := p.InnerClasses(q), smali.ScanInnerClasses(p, q); !slices.Equal(got, want) {
			t.Errorf("%s: InnerClasses(%q) = %v, scan %v", label, q, got, want)
		}
		if got, want := p.ClassAndInner(q), smali.ScanClassAndInner(p, q); !slices.Equal(got, want) {
			t.Errorf("%s: ClassAndInner(%q) = %v, scan %v", label, q, got, want)
		}
		if got, want := p.UsedClasses(q), smali.ScanUsedClasses(p, q); !slices.Equal(got, want) {
			t.Errorf("%s: UsedClasses(%q) = %v, scan %v", label, q, got, want)
		}
		for _, b := range bases {
			if got, want := p.IsSubclassOf(q, b), smali.ScanIsSubclassOf(p, q, b); got != want {
				t.Errorf("%s: IsSubclassOf(%q, %q) = %v, scan %v", label, q, b, got, want)
			}
		}
		for _, m := range methods {
			def, ok := p.Resolve(q, m)
			wantDef, wantOK := smali.ScanResolveMethod(p, q, m)
			if def != wantDef || ok != wantOK {
				t.Errorf("%s: Resolve(%q, %q) = %q %v, scan %q %v", label, q, m, def, ok, wantDef, wantOK)
			}
			if ok != smali.ScanResolves(p, q, m) {
				t.Errorf("%s: Resolve(%q, %q) ok = %v, lint scan disagrees", label, q, m, ok)
			}
		}
	}
	if got, want := p.FragmentClasses(), smali.ScanFragmentClasses(p); !slices.Equal(got, want) {
		t.Errorf("%s: FragmentClasses = %v, scan %v", label, got, want)
	}
}

// TestIndexMatchesScansBuiltin runs the differential check on the 16
// built-in apps: the demo app and the 15 Table I apps.
func TestIndexMatchesScansBuiltin(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		checkAgainstOracles(t, spec.Package, app.Program)
	}
}

// TestIndexMatchesScansFamily runs the differential check on a 300-member
// sample of the generated family corpus (packed members have no program).
func TestIndexMatchesScansFamily(t *testing.T) {
	fam := corpus.NewFamily(300, 7)
	checked := 0
	for i := 0; i < fam.Len(); i++ {
		spec := fam.At(i)
		app, err := corpus.BuildApp(spec)
		if errors.Is(err, apk.ErrPacked) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		checkAgainstOracles(t, spec.Package, app.Program)
		checked++
	}
	if checked < 290 {
		t.Fatalf("only %d family members checked", checked)
	}
}

func method(name string, body ...smali.Instr) *smali.Method {
	return &smali.Method{Name: name, Body: body}
}

func addAll(t *testing.T, classes ...*smali.Class) *smali.Program {
	t.Helper()
	p := smali.NewProgram()
	for _, c := range classes {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestIndexEdgeCases covers the shapes the corpora do not: a cyclic
// superclass chain, nested inner classes, and a method inherited two levels
// up. Unvalidated programs (cycles fail Validate) are queried directly.
func TestIndexEdgeCases(t *testing.T) {
	cyclic := addAll(t,
		&smali.Class{Name: "p.A", Super: "p.B", Methods: []*smali.Method{method("onA")}},
		&smali.Class{Name: "p.B", Super: "p.A", Methods: []*smali.Method{method("onB")}},
		&smali.Class{Name: "p.C", Super: "p.A"},
		&smali.Class{Name: "p.D", Super: "p.E"},
		&smali.Class{Name: "p.E", Super: "p.F"},
		&smali.Class{Name: "p.F", Super: "p.E"},
	)
	checkAgainstOracles(t, "cyclic", cyclic)
	if cyclic.IsSubclassOf("p.A", "p.A") {
		t.Error("a class on a cycle must not be its own subclass")
	}
	if !cyclic.IsSubclassOf("p.C", "p.B") {
		t.Error("p.C extends p.A extends p.B")
	}
	if def, ok := cyclic.Resolve("p.C", "onB"); !ok || def != "p.B" {
		t.Errorf("Resolve(p.C, onB) = %q %v", def, ok)
	}

	nested := addAll(t,
		&smali.Class{Name: "p.A", Super: smali.ClassActivity, Methods: []*smali.Method{
			method("onCreate", smali.Instr{Op: smali.OpNewInstance, Args: []string{"p.F"}},
				smali.Instr{Op: smali.OpInstanceOf, Args: []string{"p.F"}},
				smali.Instr{Op: smali.OpNewIntent, Args: []string{"p.A", "p.A$1"}}),
		}},
		&smali.Class{Name: "p.A$1", Super: smali.ClassObject},
		&smali.Class{Name: "p.A$1$2", Super: smali.ClassObject},
		&smali.Class{Name: "p.A$$3", Super: smali.ClassObject},
		&smali.Class{Name: "p.AB$1", Super: smali.ClassObject},
		&smali.Class{Name: "p.F", Super: smali.ClassSupportFragment},
		&smali.Class{Name: "q.Orphan$1", Super: smali.ClassObject},
	)
	checkAgainstOracles(t, "nested", nested)
	if got := nested.ClassAndInner("p.A"); !slices.Equal(got, []string{"p.A", "p.A$$3", "p.A$1", "p.A$1$2"}) {
		t.Errorf("ClassAndInner(p.A) = %v", got)
	}
	if got := nested.InnerClasses("p.A$1"); !slices.Equal(got, []string{"p.A$1$2"}) {
		t.Errorf("InnerClasses(p.A$1) = %v", got)
	}
	if got := nested.ClassAndInner("q.Orphan"); !slices.Equal(got, []string{"q.Orphan", "q.Orphan$1"}) {
		t.Errorf("ClassAndInner(q.Orphan) = %v", got)
	}
	if got := nested.UsedClasses("p.A"); !slices.Equal(got, []string{"p.A", "p.A$1", "p.F"}) {
		t.Errorf("UsedClasses(p.A) = %v", got)
	}

	inherited := addAll(t,
		&smali.Class{Name: "p.Base", Super: smali.ClassActivity, Methods: []*smali.Method{method("onGo"), method("onCreate")}},
		&smali.Class{Name: "p.Mid", Super: "p.Base", Methods: []*smali.Method{method("onCreate")}},
		&smali.Class{Name: "p.Leaf", Super: "p.Mid"},
	)
	checkAgainstOracles(t, "inherited", inherited)
	if def, ok := inherited.Resolve("p.Leaf", "onGo"); !ok || def != "p.Base" {
		t.Errorf("Resolve(p.Leaf, onGo) = %q %v, want p.Base", def, ok)
	}
	if def, ok := inherited.Resolve("p.Leaf", "onCreate"); !ok || def != "p.Mid" {
		t.Errorf("Resolve(p.Leaf, onCreate) = %q %v, want p.Mid", def, ok)
	}
}

// TestIndexAddAfterQuery checks that adding a class after a query discards
// the built index instead of answering from a stale one.
func TestIndexAddAfterQuery(t *testing.T) {
	p := addAll(t, &smali.Class{Name: "p.A", Super: smali.ClassActivity})
	if got := p.InnerClasses("p.A"); got != nil {
		t.Fatalf("InnerClasses = %v", got)
	}
	if err := p.Add(&smali.Class{Name: "p.A$1", Super: smali.ClassFragment}); err != nil {
		t.Fatal(err)
	}
	if got := p.InnerClasses("p.A"); !slices.Equal(got, []string{"p.A$1"}) {
		t.Errorf("InnerClasses after Add = %v", got)
	}
	if got := p.FragmentClasses(); !slices.Equal(got, []string{"p.A$1"}) {
		t.Errorf("FragmentClasses after Add = %v", got)
	}
}

// TestIndexConcurrentFirstQueries issues the first queries of one shared
// program from many goroutines at once; under -race this checks that the
// lazy build is properly synchronized.
func TestIndexConcurrentFirstQueries(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Decode a fresh copy, which no query has touched yet.
	data, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := apk.DecodeApp(data)
	if err != nil {
		t.Fatal(err)
	}
	p := fresh.Program
	names := p.Names()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range names {
				n := names[(k+g)%len(names)]
				switch g % 4 {
				case 0:
					_ = p.InnerClasses(n)
				case 1:
					_ = p.UsedClasses(n)
				case 2:
					_ = p.FragmentClasses()
				default:
					_, _ = p.Resolve(n, "onCreate")
				}
			}
		}(g)
	}
	wg.Wait()
	checkAgainstOracles(t, "concurrent", p)
}
