package smali

import (
	"sort"
	"strings"
)

// The scanning implementations the program index and the allocation-free
// chain walks replaced, kept as test oracles: each re-derives its answer
// from the class set on every call. index_test.go asserts the indexed
// queries answer exactly as these do.

// ScanInnerClasses is InnerClasses as a full scan of the class names.
func ScanInnerClasses(p *Program, name string) []string {
	prefix := name + "$"
	var out []string
	for n := range p.classes {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ScanClassAndInner is ClassAndInner over ScanInnerClasses.
func ScanClassAndInner(p *Program, name string) []string {
	return append([]string{name}, ScanInnerClasses(p, name)...)
}

// ScanUsedClasses is UsedClasses as a scan of the class's instructions.
func ScanUsedClasses(p *Program, name string) []string {
	c := p.classes[name]
	if c == nil {
		return nil
	}
	set := make(map[string]bool)
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			spec := opSpecs[ins.Op]
			for n, k := range spec.kinds {
				if k == argType && n < len(ins.Args) {
					set[ins.Args[n]] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SuperChain returns the chain of superclass names starting at name's direct
// superclass and ending at the last resolvable ancestor (framework classes
// terminate the chain since they have no .smali file). This is the
// getSuperChain of Algorithm 2. Cycles are broken defensively.
func (p *Program) SuperChain(name string) []string {
	var chain []string
	seen := map[string]bool{name: true}
	cur := p.classes[name]
	for cur != nil && cur.Super != "" {
		if seen[cur.Super] {
			break
		}
		seen[cur.Super] = true
		chain = append(chain, cur.Super)
		if FrameworkClass(cur.Super) {
			break
		}
		cur = p.classes[cur.Super]
	}
	return chain
}

// ScanIsSubclassOf is IsSubclassOf over the materialized SuperChain.
func ScanIsSubclassOf(p *Program, name, base string) bool {
	for _, s := range p.SuperChain(name) {
		if s == base {
			return true
		}
	}
	return false
}

// ScanFragmentClasses is FragmentClasses as a scan over every class.
func ScanFragmentClasses(p *Program) []string {
	var out []string
	for name := range p.classes {
		if ScanIsSubclassOf(p, name, ClassFragment) || ScanIsSubclassOf(p, name, ClassSupportFragment) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ScanResolveMethod is the call graph's former resolveMethod: the first of
// class and its SuperChain that defines method.
func ScanResolveMethod(p *Program, class, method string) (string, bool) {
	for _, cn := range append([]string{class}, p.SuperChain(class)...) {
		c := p.Class(cn)
		if c == nil {
			continue
		}
		if c.Method(method) != nil {
			return cn, true
		}
	}
	return "", false
}

// ScanResolves is lint's former ctx.resolves: whether class or its
// SuperChain defines method.
func ScanResolves(p *Program, class, method string) bool {
	for _, cn := range append([]string{class}, p.SuperChain(class)...) {
		if cl := p.Class(cn); cl != nil && cl.Method(method) != nil {
			return true
		}
	}
	return false
}
