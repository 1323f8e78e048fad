package res

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefineAndLookup(t *testing.T) {
	tbl := NewTable()
	id, err := tbl.Define(KindID, "btn_login")
	if err != nil {
		t.Fatalf("Define: %v", err)
	}
	got, ok := tbl.Lookup(KindID, "btn_login")
	if !ok || got != id {
		t.Fatalf("Lookup = %v, %v; want %v, true", got, ok, id)
	}
	if e, ok := tbl.NameOf(id); !ok || e.Name != "btn_login" || e.Kind != KindID {
		t.Fatalf("NameOf = %+v, %v", e, ok)
	}
}

func TestDefineIdempotent(t *testing.T) {
	tbl := NewTable()
	a := tbl.MustDefine(KindLayout, "main")
	b := tbl.MustDefine(KindLayout, "main")
	if a != b {
		t.Fatalf("re-Define allocated new ID: %v vs %v", a, b)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestDefineErrors(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Define(KindID, ""); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := tbl.Define(Kind(99), "x"); err == nil {
		t.Error("unknown kind: want error")
	}
}

// TestDefineKindCapacity pins the per-kind bound: the entry number has 16
// bits, so a kind holds MaxPerKind entries and the next definition fails
// with *CapacityError instead of taking the next kind's first ID (without
// the bound, the 65,537th @id got the first layout's ID 0x7f0a0000, and
// NameOf of that layout answered with the widget).
func TestDefineKindCapacity(t *testing.T) {
	tbl := NewTable()
	layout := tbl.MustDefine(KindLayout, "main")
	var last ID
	for n := 0; n < MaxPerKind; n++ {
		id, err := tbl.Define(KindID, fmt.Sprintf("w%d", n))
		if err != nil {
			t.Fatalf("entry %d: %v", n, err)
		}
		last = id
	}
	if last.Kind() != KindID {
		t.Fatalf("last @id %#x decodes as kind %v", uint32(last), last.Kind())
	}
	id, err := tbl.Define(KindID, "overflow")
	var capErr *CapacityError
	if !errors.As(err, &capErr) || capErr.Kind != KindID || capErr.Name != "overflow" {
		t.Fatalf("entry %d: Define = %#x, %v; want *CapacityError for id/overflow", MaxPerKind, uint32(id), err)
	}
	if _, ok := tbl.Lookup(KindID, "overflow"); ok {
		t.Fatal("failed definition left an entry behind")
	}
	if again, err := tbl.Define(KindID, "w7"); err != nil || again != ID(idBase+uint32(KindID)<<kindShift+7) {
		t.Fatalf("re-Define of an existing name on a full kind = %#x, %v", uint32(again), err)
	}
	if e, ok := tbl.NameOf(layout); !ok || e.Kind != KindLayout || e.Name != "main" {
		t.Fatalf("NameOf(layout %#x) = %+v, %v; want layout/main", uint32(layout), e, ok)
	}
	if tbl.Len() != MaxPerKind+1 {
		t.Fatalf("Len = %d, want %d", tbl.Len(), MaxPerKind+1)
	}
	if _, err := tbl.Define(KindString, "other"); err != nil {
		t.Fatalf("a full kind blocked another kind: %v", err)
	}
}

// TestNameOfUndefined covers the reverse lookup's range checks: IDs below
// the base, of unknown kinds, and past a kind's last entry are undefined.
func TestNameOfUndefined(t *testing.T) {
	tbl := NewTable()
	id := tbl.MustDefine(KindID, "a")
	for _, bad := range []ID{0, idBase - 1, id + 1, ID(idBase + uint32(KindMenu+1)<<kindShift), ^ID(0)} {
		if e, ok := tbl.NameOf(bad); ok {
			t.Errorf("NameOf(%#x) = %+v, want undefined", uint32(bad), e)
		}
	}
	if e, ok := tbl.NameOf(id); !ok || e != (Entry{Kind: KindID, Name: "a", ID: id}) {
		t.Errorf("NameOf(%#x) = %+v, %v", uint32(id), e, ok)
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	tbl := NewTable()
	seen := make(map[ID]string)
	for _, k := range []Kind{KindID, KindLayout, KindString, KindDrawable, KindMenu} {
		for _, name := range []string{"a", "b", "c"} {
			id := tbl.MustDefine(k, name)
			if prev, dup := seen[id]; dup {
				t.Fatalf("ID collision: %v for both %s and %s/%s", id, prev, k, name)
			}
			seen[id] = k.String() + "/" + name
			if id.Kind() != k {
				t.Errorf("ID %v decodes kind %v, want %v", id, id.Kind(), k)
			}
			if !id.Valid() {
				t.Errorf("ID %v not Valid", id)
			}
		}
	}
}

func TestParseRef(t *testing.T) {
	tests := []struct {
		ref      string
		wantKind Kind
		wantName string
		wantErr  bool
	}{
		{"@id/btn", KindID, "btn", false},
		{"@+id/btn", KindID, "btn", false},
		{"@layout/main", KindLayout, "main", false},
		{"@string/app_name", KindString, "app_name", false},
		{"@drawable/icon", KindDrawable, "icon", false},
		{"@menu/drawer", KindMenu, "drawer", false},
		{"id/btn", 0, "", true},
		{"@bogus/btn", 0, "", true},
		{"@id/", 0, "", true},
		{"@/name", 0, "", true},
		{"@id", 0, "", true},
		{"", 0, "", true},
	}
	for _, tc := range tests {
		k, n, err := ParseRef(tc.ref)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseRef(%q): want error, got %v/%v", tc.ref, k, n)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRef(%q): %v", tc.ref, err)
			continue
		}
		if k != tc.wantKind || n != tc.wantName {
			t.Errorf("ParseRef(%q) = %v,%q; want %v,%q", tc.ref, k, n, tc.wantKind, tc.wantName)
		}
	}
}

func TestResolve(t *testing.T) {
	tbl := NewTable()
	want := tbl.MustDefine(KindID, "container")
	got, err := tbl.Resolve("@id/container")
	if err != nil || got != want {
		t.Fatalf("Resolve = %v, %v; want %v, nil", got, err, want)
	}
	if _, err := tbl.Resolve("@id/missing"); err == nil {
		t.Fatal("Resolve of undefined ref: want error")
	} else {
		var ue *UnresolvedError
		if !asUnresolved(err, &ue) {
			t.Fatalf("error type = %T, want *UnresolvedError", err)
		}
		if !strings.Contains(ue.Error(), "@id/missing") {
			t.Errorf("error message %q does not mention ref", ue.Error())
		}
	}
}

func asUnresolved(err error, target **UnresolvedError) bool {
	ue, ok := err.(*UnresolvedError)
	if ok {
		*target = ue
	}
	return ok
}

func TestResolveOrDefine(t *testing.T) {
	tbl := NewTable()
	id, err := tbl.ResolveOrDefine("@+id/new_widget")
	if err != nil {
		t.Fatalf("ResolveOrDefine: %v", err)
	}
	again, err := tbl.Resolve("@id/new_widget")
	if err != nil || again != id {
		t.Fatalf("subsequent Resolve = %v, %v; want %v, nil", again, err, id)
	}
}

func TestEntriesSortedAndRefRoundTrip(t *testing.T) {
	tbl := NewTable()
	tbl.MustDefine(KindLayout, "main")
	tbl.MustDefine(KindID, "btn")
	tbl.MustDefine(KindID, "txt")
	es := tbl.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries len = %d, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("Entries not sorted: %v then %v", es[i-1].ID, es[i].ID)
		}
	}
	for _, e := range es {
		k, n, err := ParseRef(e.Ref())
		if err != nil || k != e.Kind || n != e.Name {
			t.Errorf("Ref round trip failed for %+v: %v %v %v", e, k, n, err)
		}
	}
}

func TestClone(t *testing.T) {
	tbl := NewTable()
	tbl.MustDefine(KindID, "a")
	cl := tbl.Clone()
	cl.MustDefine(KindID, "b")
	if _, ok := tbl.Lookup(KindID, "b"); ok {
		t.Fatal("Clone leaked definition into original")
	}
	if _, ok := cl.Lookup(KindID, "a"); !ok {
		t.Fatal("Clone missing original definition")
	}
	// Fresh definitions in original and clone must not collide in meaning.
	origB := tbl.MustDefine(KindID, "b")
	cloneB, _ := cl.Lookup(KindID, "b")
	if origB != cloneB {
		// IDs are allocated by per-kind counters, so identical definition
		// sequences yield identical IDs; divergence is fine, equality is
		// expected here because both allocated "b" as the second KindID.
		t.Fatalf("deterministic allocation violated: %v vs %v", origB, cloneB)
	}
	// With three entries the name list has spare capacity; definitions made
	// on one side after the clone must not show through on the other.
	tbl.MustDefine(KindID, "c")
	cl2 := tbl.Clone()
	x := cl2.MustDefine(KindID, "x")
	y := tbl.MustDefine(KindID, "y")
	if x != y {
		t.Fatalf("third KindID differs: %v vs %v", x, y)
	}
	if e, _ := cl2.NameOf(x); e.Name != "x" {
		t.Fatalf("clone's entry %v renamed to %q by the original", x, e.Name)
	}
	if e, _ := tbl.NameOf(y); e.Name != "y" {
		t.Fatalf("original's entry %v renamed to %q by the clone", y, e.Name)
	}
}

// Property: for any sequence of (kind, name) definitions, IDs are unique per
// distinct pair, stable on re-definition, and round-trip through NameOf.
func TestQuickDefineProperties(t *testing.T) {
	kinds := []Kind{KindID, KindLayout, KindString, KindDrawable, KindMenu}
	f := func(pairs []struct {
		K uint8
		N string
	}) bool {
		tbl := NewTable()
		got := make(map[string]ID)
		for _, p := range pairs {
			if p.N == "" {
				continue
			}
			k := kinds[int(p.K)%len(kinds)]
			id, err := tbl.Define(k, p.N)
			if err != nil {
				return false
			}
			key := k.String() + "/" + p.N
			if prev, ok := got[key]; ok && prev != id {
				return false
			}
			got[key] = id
			e, ok := tbl.NameOf(id)
			if !ok || e.Name != p.N || e.Kind != k {
				return false
			}
		}
		// Distinct pairs must have distinct IDs.
		seen := make(map[ID]bool)
		for _, id := range got {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return tbl.Len() == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
