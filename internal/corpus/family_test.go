package corpus

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFamilyDeterministicAndPure pins the generator contract the streaming
// pipeline relies on: At(i) is a pure function of (seed, i) — repeated calls
// agree, and member i is identical whatever the family size.
func TestFamilyDeterministicAndPure(t *testing.T) {
	small := NewFamily(40, 7)
	big := NewFamily(400, 7)
	for i := 0; i < small.Len(); i++ {
		a, b := small.At(i), small.At(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("member %d differs across calls", i)
		}
		if !reflect.DeepEqual(a, big.At(i)) {
			t.Fatalf("member %d differs across family sizes", i)
		}
		if !reflect.DeepEqual(small.Axes(i), big.Axes(i)) {
			t.Fatalf("axes of member %d differ across family sizes", i)
		}
		spec, axes := small.Member(i)
		if !reflect.DeepEqual(spec, a) || !reflect.DeepEqual(axes, small.Axes(i)) {
			t.Fatalf("Member(%d) differs from At/Axes", i)
		}
	}
	if got := NewFamily(40, 8).At(3); reflect.DeepEqual(got, small.At(3)) {
		t.Fatalf("different seeds produced identical member 3")
	}
}

// TestSeededRandRestartsStream pins what the generator pool relies on: a
// used *rand.Rand, re-seeded, draws exactly the stream a fresh
// rand.New(rand.NewSource(seed)) draws.
func TestSeededRandRestartsStream(t *testing.T) {
	sameStream := func(seed int64, got *rand.Rand) {
		t.Helper()
		want := rand.New(rand.NewSource(seed))
		for k := 0; k < 50; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 %d, fresh source %d", seed, k, g, w)
			}
			if g, w := got.Intn(97), want.Intn(97); g != w {
				t.Fatalf("seed %d draw %d: Intn %d, fresh source %d", seed, k, g, w)
			}
		}
		gb, wb := make([]byte, 7), make([]byte, 7)
		got.Read(gb)
		want.Read(wb)
		if !reflect.DeepEqual(gb, wb) {
			t.Fatalf("seed %d: Read %v, fresh source %v", seed, gb, wb)
		}
	}
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		used := rand.New(rand.NewSource(seed + 1))
		used.Read(make([]byte, 5)) // leaves buffered Read state behind
		used.Intn(10)
		used.Seed(seed)
		sameStream(seed, used)

		pooled := seededRand(seed)
		sameStream(seed, pooled)
		rngPool.Put(pooled)
	}
}

// TestFamilyMembersBuild validates and assembles a slice of the family: every
// spec passes Validate, non-packed members build into real apps, and the
// category embedded in the package parses like the study corpus expects.
func TestFamilyMembersBuild(t *testing.T) {
	fam := NewFamily(120, 3)
	for i := 0; i < fam.Len(); i++ {
		spec := fam.At(i)
		if err := spec.Validate(); err != nil {
			t.Fatalf("member %d invalid: %v", i, err)
		}
		parts := strings.SplitN(spec.Package, ".", 3)
		if len(parts) != 3 || parts[0] != "com" {
			t.Fatalf("member %d package %q not com.<category>.<rest>", i, spec.Package)
		}
		if spec.Packed {
			continue
		}
		app, err := BuildApp(spec)
		if err != nil {
			t.Fatalf("member %d failed to build: %v", i, err)
		}
		if len(app.Manifest.ActivityNames()) == 0 {
			t.Fatalf("member %d built without activities", i)
		}
	}
}

// TestFamilyAxes checks the scenario axes actually manifest in the specs:
// deep-link members declare VIEW-reachable URIs, receiver members carry a
// broadcast receiver with a sensitive call, packed/fragment-free/popup match
// their labels — and across a modest window every axis occurs.
func TestFamilyAxes(t *testing.T) {
	fam := NewFamily(300, 11)
	seen := map[string]int{}
	for i := 0; i < fam.Len(); i++ {
		spec := fam.At(i)
		axes := fam.Axes(i)
		has := func(a string) bool {
			for _, x := range axes {
				if x == a {
					return true
				}
			}
			return false
		}
		for _, a := range axes {
			seen[a]++
		}
		if has(AxisPacked) != spec.Packed {
			t.Fatalf("member %d: packed axis %v but spec.Packed=%v", i, has(AxisPacked), spec.Packed)
		}
		if spec.Packed {
			if len(axes) != 1 {
				t.Fatalf("member %d: packed member carries extra axes %v", i, axes)
			}
			continue
		}
		if has(AxisNoFragments) == spec.UsesFragments() {
			t.Fatalf("member %d: no-fragments axis %v but UsesFragments=%v", i, has(AxisNoFragments), spec.UsesFragments())
		}
		links := 0
		for _, a := range spec.Activities {
			if a.DeepLink != "" {
				links++
				if !strings.HasPrefix(a.DeepLink, "app://"+spec.Package+"/") {
					t.Fatalf("member %d: deep link %q not rooted in package", i, a.DeepLink)
				}
			}
		}
		if has(AxisDeepLink) != (links > 0) {
			t.Fatalf("member %d: deeplink axis %v but %d links", i, has(AxisDeepLink), links)
		}
		if has(AxisReceiverEntry) != (len(spec.Receivers) > 0) {
			t.Fatalf("member %d: receiver axis %v but %d receivers", i, has(AxisReceiverEntry), len(spec.Receivers))
		}
		for _, r := range spec.Receivers {
			if len(r.Sensitive) == 0 {
				t.Fatalf("member %d: receiver %s without sensitive call", i, r.Name)
			}
		}
		popup := false
		for _, a := range spec.Activities {
			popup = popup || a.PopupOnCreate
		}
		if has(AxisPopup) && !popup {
			t.Fatalf("member %d: popup axis without PopupOnCreate", i)
		}
	}
	for _, a := range []string{AxisPacked, AxisNoFragments, AxisDeepLink, AxisReceiverEntry, AxisPopup} {
		if seen[a] == 0 {
			t.Fatalf("axis %s never occurred in 300 members", a)
		}
	}
}

// TestFamilyDeepLinksResolve builds a deep-link member and checks the
// manifest round trip: every declared URI resolves back to its activity.
func TestFamilyDeepLinksResolve(t *testing.T) {
	fam := NewFamily(40, 5)
	checked := 0
	for i := 0; i < fam.Len(); i++ {
		spec := fam.At(i)
		if spec.Packed {
			continue
		}
		app, err := BuildApp(spec)
		if err != nil {
			t.Fatalf("member %d failed to build: %v", i, err)
		}
		for _, a := range spec.Activities {
			if a.DeepLink == "" {
				continue
			}
			got, ok := app.Manifest.ActivityForURI(a.DeepLink)
			if !ok {
				t.Fatalf("member %d: URI %s not resolvable in manifest", i, a.DeepLink)
			}
			if want := spec.Package + "." + a.Name; got != want {
				t.Fatalf("member %d: URI %s resolved to %s, want %s", i, a.DeepLink, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no deep links checked; generator axis broken")
	}
}

// TestSliceSource pins the adapter.
func TestSliceSource(t *testing.T) {
	specs := StudySpecs(1)
	src := SliceSource(specs)
	if src.Len() != len(specs) {
		t.Fatalf("Len=%d want %d", src.Len(), len(specs))
	}
	if src.At(5) != specs[5] {
		t.Fatal("At(5) is not the underlying spec")
	}
}
