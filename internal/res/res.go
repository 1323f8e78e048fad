// Package res implements the resource-ID table of a synthetic Android
// application package. It plays the role of the generated R class in a real
// Android build: every identifiable resource (widget ID, layout, string,
// drawable) is assigned a unique 32-bit number, and references of the form
// "@id/name", "@layout/name", ... are resolved against the table.
//
// FragDroid's resource-dependency extraction (Algorithm 3 of the paper)
// matches widgets to their host Activities and Fragments purely through
// resource IDs, so the table is shared between the static-analysis and
// dynamic-execution halves of the system.
package res

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Kind classifies a resource entry, mirroring the R.<kind> namespaces of a
// real Android resource table.
type Kind int

const (
	// KindID identifies view/widget IDs (R.id.*).
	KindID Kind = iota + 1
	// KindLayout identifies layout files (R.layout.*).
	KindLayout
	// KindString identifies string resources (R.string.*).
	KindString
	// KindDrawable identifies drawable resources (R.drawable.*).
	KindDrawable
	// KindMenu identifies menu resources (R.menu.*).
	KindMenu
)

// kindNames is indexed by Kind; slot 0 is no kind.
var kindNames = [...]string{
	KindID:       "id",
	KindLayout:   "layout",
	KindString:   "string",
	KindDrawable: "drawable",
	KindMenu:     "menu",
}

// known reports whether k is one of the defined kinds.
func (k Kind) known() bool { return k >= KindID && k <= KindMenu }

// String returns the R-namespace name of the kind ("id", "layout", ...).
func (k Kind) String() string {
	if k.known() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromName maps an R-namespace name back to its Kind. The boolean result
// reports whether the name is known.
func KindFromName(name string) (Kind, bool) {
	for k := KindID; k <= KindMenu; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// ID is a resolved resource identifier. Like Android's aapt numbering, the
// kind is encoded in the upper bits so IDs of different kinds never collide.
type ID uint32

// base offsets per kind, in the spirit of aapt's 0x7fTTEEEE scheme.
const (
	idBase    = 0x7f080000
	kindShift = 16
)

// MaxPerKind is the number of entries one kind can hold: the entry number
// fills the low 16 bits of an ID, so entry 1<<16 would carry into the kind
// bits and alias the next kind's first ID.
const MaxPerKind = 1 << kindShift

// Kind extracts the resource kind encoded in the ID.
func (id ID) Kind() Kind {
	return Kind((uint32(id) - idBase) >> kindShift)
}

// Valid reports whether the ID carries a known kind encoding.
func (id ID) Valid() bool {
	return uint32(id) >= idBase && id.Kind().known()
}

// Entry is a single named resource in the table.
type Entry struct {
	Kind Kind
	Name string
	ID   ID
}

// refKey is the composite (kind, name) lookup key. A comparable struct key
// avoids the per-lookup string concatenation a "kind/name" key would cost on
// the resolve-heavy static-analysis paths.
type refKey struct {
	kind Kind
	name string
}

// Table allocates and resolves resource IDs. The zero value is not ready for
// use; call NewTable.
//
// IDs are dense: the n-th name defined for a kind gets idBase + kind<<16 +
// n. So one map resolves names to IDs, and a per-kind name list, indexed by
// the entry number, answers the reverse direction and lists entries in ID
// order without sorting.
type Table struct {
	byRef map[refKey]ID
	names [KindMenu + 1][]string // names[kind][n] names idBase + kind<<16 + n
}

// NewTable returns an empty resource table.
func NewTable() *Table {
	return NewTableSized(0)
}

// NewTableSized returns an empty resource table pre-sized for about hint
// entries, so bulk loaders (the artifact-store decoder knows the final entry
// count up front) avoid growing the map incrementally. Widget IDs are nearly
// all of an app's entries, so their name list gets the room too.
func NewTableSized(hint int) *Table {
	t := &Table{byRef: make(map[refKey]ID, hint)}
	if hint > 0 {
		t.names[KindID] = make([]string, 0, hint)
	}
	return t
}

// Define allocates an ID for (kind, name), or returns the existing one if the
// pair is already defined. Names must be non-empty, and a kind holds at most
// MaxPerKind entries: defining one more fails with a *CapacityError.
func (t *Table) Define(kind Kind, name string) (ID, error) {
	if name == "" {
		return 0, fmt.Errorf("res: empty resource name for kind %s", kind)
	}
	if !kind.known() {
		return 0, fmt.Errorf("res: unknown resource kind %d", int(kind))
	}
	key := refKey{kind, name}
	if id, ok := t.byRef[key]; ok {
		return id, nil
	}
	n := len(t.names[kind])
	if n >= MaxPerKind {
		return 0, &CapacityError{Kind: kind, Name: name}
	}
	id := ID(idBase + uint32(kind)<<kindShift + uint32(n))
	t.names[kind] = append(t.names[kind], name)
	t.byRef[key] = id
	return id, nil
}

// MustDefine is Define for callers constructing tables from trusted,
// programmatic input (e.g. the corpus builders). It panics on error.
func (t *Table) MustDefine(kind Kind, name string) ID {
	id, err := t.Define(kind, name)
	if err != nil {
		panic(err)
	}
	return id
}

// Lookup resolves (kind, name) to its ID. The boolean result reports whether
// the resource is defined.
func (t *Table) Lookup(kind Kind, name string) (ID, bool) {
	id, ok := t.byRef[refKey{kind, name}]
	return id, ok
}

// NameOf returns the entry for id. The boolean result reports whether the ID
// is defined in this table.
func (t *Table) NameOf(id ID) (Entry, bool) {
	if !id.Valid() {
		return Entry{}, false
	}
	k := id.Kind()
	n := uint32(id) & (MaxPerKind - 1)
	if int(n) >= len(t.names[k]) {
		return Entry{}, false
	}
	return Entry{Kind: k, Name: t.names[k][n], ID: id}, true
}

// Resolve parses and resolves a textual reference of the form "@kind/name"
// (for example "@id/btn_login" or "@layout/main"). Undefined references are
// an error: the static analyzer treats a dangling reference as a malformed
// package.
func (t *Table) Resolve(ref string) (ID, error) {
	kind, name, err := ParseRef(ref)
	if err != nil {
		return 0, err
	}
	id, ok := t.Lookup(kind, name)
	if !ok {
		return 0, &UnresolvedError{Ref: ref}
	}
	return id, nil
}

// ResolveOrDefine parses ref and resolves it, defining it first if absent.
// Layout loaders use this so that layouts may introduce fresh widget IDs, as
// "@+id/name" does in real Android layout files.
func (t *Table) ResolveOrDefine(ref string) (ID, error) {
	kind, name, err := ParseRef(ref)
	if err != nil {
		return 0, err
	}
	return t.Define(kind, name)
}

// ParseRef splits a "@kind/name" reference into its parts. A leading "@+" is
// accepted as a synonym for "@" (new-ID syntax).
func ParseRef(ref string) (Kind, string, error) {
	s := ref
	switch {
	case strings.HasPrefix(s, "@+"):
		s = s[2:]
	case strings.HasPrefix(s, "@"):
		s = s[1:]
	default:
		return 0, "", fmt.Errorf("res: reference %q does not start with '@'", ref)
	}
	slash := strings.IndexByte(s, '/')
	if slash <= 0 || slash == len(s)-1 {
		return 0, "", fmt.Errorf("res: malformed reference %q, want @kind/name", ref)
	}
	kindName, name := s[:slash], s[slash+1:]
	kind, ok := KindFromName(kindName)
	if !ok {
		return 0, "", fmt.Errorf("res: unknown resource kind %q in %q", kindName, ref)
	}
	return kind, name, nil
}

// Ref renders the entry as a "@kind/name" reference.
func (e Entry) Ref() string {
	return "@" + e.Kind.String() + "/" + e.Name
}

// Entries returns all defined resources sorted by ID. The slice is a copy.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.byRef))
	for k := KindID; k <= KindMenu; k++ {
		base := idBase + uint32(k)<<kindShift
		for n, name := range t.names[k] {
			out = append(out, Entry{Kind: k, Name: name, ID: ID(base + uint32(n))})
		}
	}
	return out
}

// Len reports the number of defined resources.
func (t *Table) Len() int { return len(t.byRef) }

// Clone returns a deep copy of the table: definitions made on the copy or
// the original after the call do not show in the other.
func (t *Table) Clone() *Table {
	nt := &Table{byRef: maps.Clone(t.byRef)}
	for k := range t.names {
		nt.names[k] = slices.Clone(t.names[k])
	}
	return nt
}

// CapacityError reports a definition beyond MaxPerKind entries of one kind.
type CapacityError struct {
	Kind Kind
	Name string
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("res: %s table full: cannot define %q beyond %d entries", e.Kind, e.Name, MaxPerKind)
}

// UnresolvedError reports a reference to a resource that is not defined.
type UnresolvedError struct {
	Ref string
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("res: unresolved resource reference %q", e.Ref)
}
