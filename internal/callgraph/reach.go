// Fixpoint reachability over the whole-program graph. Two root policies
// matter in practice: the launcher alone (what a user reaches by clicking
// from the entry Activity) and launcher + every effective Activity (the
// explorer's forced empty-Intent starts of §VI-C make all of them entry
// points). The latter is the static ceiling dynamic coverage is normalized
// against.
package callgraph

import "sort"

// Reach is the result of a reachability computation: the component, method
// and sensitive-API sets reachable from the chosen roots.
type Reach struct {
	// Activities, Fragments and Receivers are the reachable component
	// classes.
	Activities map[string]bool
	Fragments  map[string]bool
	Receivers  map[string]bool
	// Methods is the reachable method set, keyed "Class.method".
	Methods map[string]bool
	// APIs maps each reachable sensitive API to the component classes whose
	// reachable code invokes it, sorted — the static Table II column.
	APIs map[string][]string
}

// ActivityList returns the reachable activities, sorted.
func (r *Reach) ActivityList() []string { return sortedKeys(r.Activities) }

// FragmentList returns the reachable fragments, sorted.
func (r *Reach) FragmentList() []string { return sortedKeys(r.Fragments) }

// ReceiverList returns the reachable receivers, sorted.
func (r *Reach) ReceiverList() []string { return sortedKeys(r.Receivers) }

// APIList returns the reachable sensitive APIs, sorted.
func (r *Reach) APIList() []string {
	out := make([]string, 0, len(r.APIs))
	for api := range r.APIs {
		out = append(out, api)
	}
	sort.Strings(out)
	return out
}

// Invocations counts the distinct (API, component) invocation relations —
// the static counterpart of the Table II invocation total.
func (r *Reach) Invocations() int {
	n := 0
	for _, classes := range r.APIs {
		n += len(classes)
	}
	return n
}

// Reach runs a breadth-first fixpoint from the given root nodes. Roots that
// are not graph nodes are ignored.
func (g *Graph) Reach(roots []Node) *Reach {
	visited := make([]bool, len(g.nodes))
	var queue []int32
	for _, n := range roots {
		if id, ok := g.node(n); ok && !visited[id] {
			visited[id] = true
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, t := range g.succ[queue[head]] {
			if !visited[t] {
				visited[t] = true
				queue = append(queue, t)
			}
		}
	}

	// queue now lists every reached node once; size the result sets to it.
	var nAct, nFrag, nRcv, nMethod int
	for _, id := range queue {
		switch g.nodes[id].Kind {
		case KindActivity:
			nAct++
		case KindFragment:
			nFrag++
		case KindReceiver:
			nRcv++
		case KindMethod:
			nMethod++
		}
	}
	r := &Reach{
		Activities: make(map[string]bool, nAct),
		Fragments:  make(map[string]bool, nFrag),
		Receivers:  make(map[string]bool, nRcv),
		Methods:    make(map[string]bool, nMethod),
		APIs:       make(map[string][]string),
	}
	apiOwners := make(map[string]map[string]bool)
	for _, id := range queue {
		n := g.nodes[id]
		switch n.Kind {
		case KindActivity:
			r.Activities[n.Class] = true
		case KindFragment:
			r.Fragments[n.Class] = true
		case KindReceiver:
			r.Receivers[n.Class] = true
		case KindMethod:
			r.Methods[n.Class+"."+n.Method] = true
			for _, site := range g.apis[id] {
				owner := outerComponent(n.Class)
				if apiOwners[site.api] == nil {
					apiOwners[site.api] = make(map[string]bool)
				}
				apiOwners[site.api][owner] = true
			}
		}
	}

	for api, owners := range apiOwners {
		r.APIs[api] = sortedKeys(owners)
	}
	return r
}

// LauncherRoots returns the root set for launcher-only reachability.
func (g *Graph) LauncherRoots() []Node {
	if g.launcher == "" {
		return nil
	}
	return []Node{ActivityNode(g.launcher)}
}

// ForcedRoots returns the root set modelling the explorer's forced
// empty-Intent starts: the launcher plus every given activity (normally the
// effective AFTM activities).
func (g *Graph) ForcedRoots(activities []string) []Node {
	roots := g.LauncherRoots()
	for _, a := range activities {
		roots = append(roots, ActivityNode(a))
	}
	return roots
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
