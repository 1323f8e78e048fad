package smali

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Well-known framework classes. Classes in the android.* / java.* namespaces
// are framework classes: they are referenced by .super and .implements lines
// but have no .smali file of their own.
const (
	ClassActivity         = "android.app.Activity"
	ClassFragment         = "android.app.Fragment"
	ClassSupportFragment  = "android.support.v4.app.Fragment"
	ClassFragmentActivity = "android.support.v4.app.FragmentActivity"
	ClassObject           = "java.lang.Object"
	ClassIntent           = "android.content.Intent"
	ClassReceiver         = "android.content.BroadcastReceiver"
)

// FrameworkClass reports whether name belongs to the simulated framework
// rather than to application code.
func FrameworkClass(name string) bool {
	return strings.HasPrefix(name, "android.") || strings.HasPrefix(name, "java.")
}

// Instr is one instruction inside a method body.
type Instr struct {
	Op   Op
	Args []string
	Line int // 1-based source line, for diagnostics
}

// String renders the instruction in source form.
func (i Instr) String() string {
	if len(i.Args) == 0 {
		return string(i.Op)
	}
	parts := make([]string, 0, 1+len(i.Args))
	parts = append(parts, string(i.Op))
	spec := opSpecs[i.Op]
	for n, a := range i.Args {
		var k argKind
		if n < len(spec.kinds) {
			k = spec.kinds[n]
		}
		switch k {
		case argType:
			parts = append(parts, ToDescriptor(a))
		case argStr:
			parts = append(parts, fmt.Sprintf("%q", a))
		default:
			parts = append(parts, a)
		}
	}
	return strings.Join(parts, " ")
}

// Method is a named method with an ordered instruction body.
type Method struct {
	Name   string
	Access []string // e.g. ["public"]
	Body   []Instr
}

// Field is a declared field.
type Field struct {
	Name       string
	Descriptor string
	Access     []string
}

// Class is one parsed .smali class.
type Class struct {
	// Name is the dotted class name, e.g. "com.example.MainActivity" or the
	// inner-class form "com.example.MainActivity$1".
	Name string
	// Super is the dotted superclass name.
	Super string
	// Interfaces lists implemented interfaces.
	Interfaces []string
	// Access holds class access flags ("public", "final", ...).
	Access []string
	// RequiresArgs marks fragment classes whose newInstance needs parameters;
	// reflective instantiation of such classes fails (paper §VII-B2, the
	// com.inditex.zara case).
	RequiresArgs bool
	// Fields and Methods preserve declaration order.
	Fields  []Field
	Methods []*Method
	// SourceFile is the archive path the class was parsed from.
	SourceFile string
}

// Check validates a programmatically constructed class the way the parser
// validates source: required directives, identifier-shaped member names, no
// duplicate methods, and per-instruction operand shapes. Classes that come
// out of ParseClass always pass.
func (c *Class) Check() error {
	if c.Name == "" {
		return fmt.Errorf("smali: class with empty name")
	}
	if c.Super == "" {
		return fmt.Errorf("smali: class %s missing superclass", c.Name)
	}
	for _, f := range c.Fields {
		if !isIdent(f.Name) {
			return fmt.Errorf("smali: class %s: invalid field name %q", c.Name, f.Name)
		}
		if f.Descriptor == "" {
			return fmt.Errorf("smali: class %s: field %s without descriptor", c.Name, f.Name)
		}
	}
	seen := make(map[string]bool, len(c.Methods))
	for _, m := range c.Methods {
		if !isIdent(m.Name) {
			return fmt.Errorf("smali: class %s: invalid method name %q", c.Name, m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("smali: class %s: duplicate method %s", c.Name, m.Name)
		}
		seen[m.Name] = true
		for _, ins := range m.Body {
			if err := ins.validate(); err != nil {
				return fmt.Errorf("smali: class %s method %s: %w", c.Name, m.Name, err)
			}
		}
	}
	return nil
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Outer returns the outer-class name for inner classes ("A$1" -> "A"), or ""
// if the class is not an inner class.
func (c *Class) Outer() string {
	if i := strings.IndexByte(c.Name, '$'); i > 0 {
		return c.Name[:i]
	}
	return ""
}

// Program is a set of classes indexed by name, i.e. the decompiled code of a
// whole application.
type Program struct {
	classes map[string]*Class
	order   []string
	// idx holds the facts derived from the whole class set; it is built on
	// the first query that needs it (see index).
	idx *index
}

// index is the per-program fact index: the results of the scans Algorithms
// 1–3 repeat for every component (getInnerClass, getUsedClass and the
// fragment-subclass scan of §IV-B2), each computed once over the whole
// program. It is built lazily, so programs that are only decoded and
// executed (the warm store path) never pay for it.
type index struct {
	once sync.Once
	// built is set inside once; Add reads it to discard a stale index.
	built bool
	// family maps every class name, and every '$'-prefix of one, to the name
	// followed by its inner classes in sorted order (ClassAndInner).
	family map[string][]string
	// used maps every class to the sorted, distinct class operands of its
	// instructions (UsedClasses).
	used map[string][]string
	// fragments lists the fragment subclasses, sorted (FragmentClasses).
	fragments []string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return NewProgramSized(0)
}

// NewProgramSized returns an empty program pre-sized for about hint classes.
func NewProgramSized(hint int) *Program {
	return &Program{
		classes: make(map[string]*Class, hint),
		order:   make([]string, 0, hint),
		idx:     &index{},
	}
}

// Add inserts a class. Duplicate class names are an error. Adding to a
// program that has already answered an indexed query discards the index, so
// the next query rebuilds it over the grown class set. Add must not run
// concurrently with any other method.
func (p *Program) Add(c *Class) error {
	if c.Name == "" {
		return fmt.Errorf("smali: class with empty name")
	}
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("smali: duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c.Name)
	if p.idx.built {
		p.idx = &index{}
	}
	return nil
}

// index returns the fact index, building it on first use. Concurrent first
// callers share one build.
func (p *Program) index() *index {
	x := p.idx
	x.once.Do(func() {
		x.family = p.buildFamilies()
		x.used = p.buildUsed()
		for _, name := range p.order {
			if p.IsFragmentClass(name) {
				x.fragments = append(x.fragments, name)
			}
		}
		sort.Strings(x.fragments)
		x.built = true
	})
	return x
}

// buildFamilies maps every class name, and every '$'-prefix of one, to the
// name followed by its inner classes: InnerClasses(name) matches on the
// "name$" prefix whether or not name is a class itself. Walking the names in
// sorted order appends each family's inner classes already sorted.
func (p *Program) buildFamilies() map[string][]string {
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	family := make(map[string][]string, len(names))
	for _, n := range names {
		family[n] = []string{n}
		for i := 0; i < len(n); i++ {
			if n[i] == '$' {
				k := n[:i]
				f, ok := family[k]
				if !ok {
					f = []string{k}
				}
				family[k] = append(f, n)
			}
		}
	}
	for k, f := range family {
		family[k] = slices.Clip(f)
	}
	return family
}

// buildUsed collects every class's sorted, distinct type operands.
func (p *Program) buildUsed() map[string][]string {
	used := make(map[string][]string, len(p.order))
	for _, name := range p.order {
		var u []string
		for _, m := range p.classes[name].Methods {
			for _, ins := range m.Body {
				for n, k := range opSpecs[ins.Op].kinds {
					if k == argType && n < len(ins.Args) {
						u = append(u, ins.Args[n])
					}
				}
			}
		}
		sort.Strings(u)
		used[name] = slices.Clip(slices.Compact(u))
	}
	return used
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class {
	return p.classes[name]
}

// Names returns all class names in insertion order. The slice is a copy.
func (p *Program) Names() []string {
	return append([]string(nil), p.order...)
}

// Len reports the number of classes.
func (p *Program) Len() int { return len(p.classes) }

// IsSubclassOf reports whether name transitively extends base (base itself is
// not a subclass of base). It walks the superclass chain — the getSuperChain
// of Algorithm 2 — without materializing it. The chain ends at the last
// resolvable ancestor: a framework class, having no .smali file, ends it. On
// a cyclic chain the walk stops on returning to name and is bounded by the
// class count, and every ancestor it revisits was already compared with base.
func (p *Program) IsSubclassOf(name, base string) bool {
	cur := p.classes[name]
	for steps := 0; cur != nil && cur.Super != "" && cur.Super != name && steps <= len(p.order); steps++ {
		if cur.Super == base {
			return true
		}
		if FrameworkClass(cur.Super) {
			return false
		}
		cur = p.classes[cur.Super]
	}
	return false
}

// Resolve finds the class that defines method, searching class and then its
// superclass chain — the runtime's virtual dispatch. It walks the chain the
// way IsSubclassOf does, without materializing it.
func (p *Program) Resolve(class, method string) (string, bool) {
	cur := p.classes[class]
	if cur != nil && cur.Method(method) != nil {
		return class, true
	}
	for steps := 0; cur != nil && cur.Super != "" && cur.Super != class && steps <= len(p.order); steps++ {
		super := cur.Super
		cur = p.classes[super]
		if cur != nil && cur.Method(method) != nil {
			return super, true
		}
		if FrameworkClass(super) {
			return "", false
		}
	}
	return "", false
}

// IsFragmentClass reports whether name extends android.app.Fragment or
// android.support.v4.app.Fragment (paper §IV-B2 and Algorithm 2).
func (p *Program) IsFragmentClass(name string) bool {
	return p.IsSubclassOf(name, ClassFragment) || p.IsSubclassOf(name, ClassSupportFragment)
}

// IsActivityClass reports whether name extends android.app.Activity or
// android.support.v4.app.FragmentActivity.
func (p *Program) IsActivityClass(name string) bool {
	return p.IsSubclassOf(name, ClassActivity) || p.IsSubclassOf(name, ClassFragmentActivity)
}

// FragmentClasses returns all fragment subclasses, sorted. This implements
// the two-pass scan of §IV-B2: direct subclasses first, then derived classes
// of those subclasses (IsSubclassOf already makes the scan transitive). The
// slice is the program's cached answer and must not be modified.
func (p *Program) FragmentClasses() []string {
	return p.index().fragments
}

// ActivityClasses returns all activity subclasses, sorted.
func (p *Program) ActivityClasses() []string {
	var out []string
	for name := range p.classes {
		if p.IsActivityClass(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// InnerClasses returns the classes declared inside name (dollar-sign naming
// convention), sorted. Algorithm 2's getInnerClass includes the class itself;
// callers that need that behaviour use ClassAndInner. The slice is shared
// and must not be modified.
func (p *Program) InnerClasses(name string) []string {
	if fam := p.index().family[name]; len(fam) > 1 {
		return fam[1:]
	}
	return nil
}

// ClassAndInner returns name followed by its inner classes — the getInnerClass
// set of Algorithm 2. The slice is shared and must not be modified.
func (p *Program) ClassAndInner(name string) []string {
	if fam, ok := p.index().family[name]; ok {
		return fam
	}
	return []string{name}
}

// UsedClasses returns the set of class names referenced by the instructions
// of the given class (Algorithm 2's getUsedClass), sorted. Only operands with
// class shape count; framework names are included so callers can walk their
// chains uniformly. The slice is shared and must not be modified.
func (p *Program) UsedClasses(name string) []string {
	return p.index().used[name]
}

// Validate checks cross-class invariants: every non-framework superclass and
// referenced class must exist in the program.
func (p *Program) Validate() error {
	for _, name := range p.order {
		c := p.classes[name]
		if c.Super == "" {
			return fmt.Errorf("smali: class %s has no superclass", name)
		}
		if !FrameworkClass(c.Super) && p.classes[c.Super] == nil {
			return fmt.Errorf("smali: class %s extends unknown class %s", name, c.Super)
		}
		if u, ok := p.firstUnknownUse(c); ok {
			return fmt.Errorf("smali: class %s references unknown class %s", name, u)
		}
	}
	return nil
}

// firstUnknownUse returns the smallest class operand of c that is neither a
// framework class nor in the program — the first failure in UsedClasses
// order — checking operands in place, so validating a program does not
// build its index.
func (p *Program) firstUnknownUse(c *Class) (string, bool) {
	var first string
	found := false
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			for n, k := range opSpecs[ins.Op].kinds {
				if k != argType || n >= len(ins.Args) {
					continue
				}
				u := ins.Args[n]
				if FrameworkClass(u) || p.classes[u] != nil {
					continue
				}
				if !found || u < first {
					first, found = u, true
				}
			}
		}
	}
	return first, found
}

// ToDescriptor converts a dotted class name to the Dalvik descriptor form
// used in source ("com.ex.A" -> "Lcom/ex/A;").
func ToDescriptor(dotted string) string {
	return "L" + strings.ReplaceAll(dotted, ".", "/") + ";"
}

// FromDescriptor converts a Dalvik descriptor to a dotted class name. It
// returns an error for malformed descriptors.
func FromDescriptor(desc string) (string, error) {
	if len(desc) < 3 || desc[0] != 'L' || desc[len(desc)-1] != ';' {
		return "", fmt.Errorf("smali: malformed type descriptor %q", desc)
	}
	return strings.ReplaceAll(desc[1:len(desc)-1], "/", "."), nil
}
