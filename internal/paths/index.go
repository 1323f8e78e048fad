package paths

import (
	"sort"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/statics"
)

// index is an interned, integer-indexed copy of one extraction's callgraph,
// built once per extraction and shared by every planner over it: nodes are
// dense IDs, adjacency lists hold edge indices, and edge costs and targets
// are precomputed so the search never hashes a node or copies an edge.
type index struct {
	nodes []callgraph.Node
	id    map[callgraph.Node]int32
	// edges holds every callgraph edge; out[n] lists the indices of node n's
	// out-edges in the graph's insertion order, and to/cost are per edge.
	edges []callgraph.Edge
	out   [][]int32
	to    []int32
	cost  []int32
	// sites maps an (API, owner component) relation to the method nodes
	// invoking the API in the owner's context, in graph site order.
	sites map[siteKey][]int32
	// launcher is the launcher root (-1 when the manifest has none); forced
	// are the other effective activities, sorted — the forced-start roots.
	launcher int32
	forced   []int32
}

type siteKey struct{ api, owner string }

// indexKey is the extraction-memo key of the index.
type indexKey struct{}

// enumKey is the extraction-memo key of one memoised enumeration: the
// search bounds, the root policy and the target. A component target has an
// empty API, which no sensitive site has, so the two kinds never collide.
type enumKey struct {
	maxPaths, maxDepth, maxExpand int
	launcherOnly                  bool
	target                        Target
}

// indexOf returns the extraction's planner index, building it on first use.
func indexOf(ex *statics.Extraction) *index {
	return ex.Derived(indexKey{}, func() any { return buildIndex(ex) }).(*index)
}

func buildIndex(ex *statics.Extraction) *index {
	g := ex.Graph()
	order := g.Nodes()
	ix := &index{
		nodes:    make([]callgraph.Node, 0, len(order)),
		id:       make(map[callgraph.Node]int32, len(order)),
		sites:    make(map[siteKey][]int32),
		launcher: -1,
	}
	for _, n := range order {
		ix.intern(n)
	}
	for _, n := range order {
		from := ix.id[n]
		for _, e := range g.EdgesFrom(n) {
			ei := int32(len(ix.edges))
			ix.edges = append(ix.edges, e)
			ix.to = append(ix.to, ix.intern(e.To))
			ix.cost = append(ix.cost, int32(edgeCost(e)))
			ix.out[from] = append(ix.out[from], ei)
		}
	}
	for _, s := range g.Sites() {
		k := siteKey{s.API, callgraph.OuterComponent(s.Node.Class)}
		ix.sites[k] = appendUnique32(ix.sites[k], ix.intern(s.Node))
	}
	if l := g.Launcher(); l != "" {
		ix.launcher = ix.intern(callgraph.ActivityNode(l))
	}
	acts := append([]string(nil), ex.EffectiveActivities...)
	sort.Strings(acts)
	for _, a := range acts {
		if a == g.Launcher() {
			continue
		}
		ix.forced = append(ix.forced, ix.intern(callgraph.ActivityNode(a)))
	}
	return ix
}

// intern returns the node's ID, adding it (with no out-edges) when it is not
// in the graph yet — a root or site node the graph never linked.
func (ix *index) intern(n callgraph.Node) int32 {
	if id, ok := ix.id[n]; ok {
		return id
	}
	id := int32(len(ix.nodes))
	ix.id[n] = id
	ix.nodes = append(ix.nodes, n)
	ix.out = append(ix.out, nil)
	return id
}

func appendUnique32(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// state is one search state of the enumeration: the walk's last node and
// the edge that reached it, linked to the state it extends, so a push costs
// one fixed-size record instead of a copy of the whole edge prefix.
type state struct {
	node   int32
	edge   int32 // edge index into index.edges; -1 for a root state
	parent int32 // parent state; -1 for a root state
	depth  int32 // edges on the walk
	cost   int32
	seq    int32 // insertion order, the deterministic tie-break
}

// search is the working set of one enumeration.
type search struct {
	ix     *index
	states []state
	heap   []int32 // state indices, a binary min-heap under less
}

// less is the pop order: cost, then walk length, then discovery order.
func (s *search) less(a, b int32) bool {
	x, y := &s.states[a], &s.states[b]
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	if x.depth != y.depth {
		return x.depth < y.depth
	}
	return x.seq < y.seq
}

func (s *search) push(st state) {
	st.seq = int32(len(s.states))
	s.states = append(s.states, st)
	h := append(s.heap, st.seq)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *search) pop() int32 {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && s.less(h[r], h[l]) {
			m = r
		}
		if !s.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
	return top
}

// onPath reports whether node n already lies on the walk ending in state i.
func (s *search) onPath(i int32, n int32) bool {
	for ; i >= 0; i = s.states[i].parent {
		if s.states[i].node == n {
			return true
		}
	}
	return false
}

// found is one enumerated walk in index form: its root node, its edge
// indices in walk order (nil for a root-only walk) and its cost. It is what
// the extraction memo keeps — a few bytes per edge instead of a copied
// callgraph.Edge.
type found struct {
	root  int32
	edges []int32
	cost  int32
}

// walk extracts the walk ending in state i.
func (s *search) walk(i int32) found {
	st := &s.states[i]
	f := found{cost: st.cost}
	if st.depth > 0 {
		f.edges = make([]int32, st.depth)
	}
	for j := st.depth - 1; s.states[i].edge >= 0; i = s.states[i].parent {
		f.edges[j] = s.states[i].edge
		j--
	}
	f.root = s.states[i].node
	return f
}

// paths materialises enumerated walks as callgraph paths. Every call builds
// fresh Edges slices, so callers own what they get even when the walks come
// from the shared memo.
func (ix *index) paths(fs []found) []Path {
	if len(fs) == 0 {
		return nil
	}
	out := make([]Path, len(fs))
	for k, f := range fs {
		p := Path{Root: ix.nodes[f.root], Forced: f.root != ix.launcher, Cost: int(f.cost)}
		if len(f.edges) > 0 {
			p.Edges = make([]callgraph.Edge, len(f.edges))
			for j, e := range f.edges {
				p.Edges[j] = ix.edges[e]
			}
		}
		out[k] = p
	}
	return out
}

// enumerate runs the bounded k-shortest-path search from the configured
// roots to any node with isTarget set. Paths come back cheapest-first (cost,
// then length, then discovery order); paths through a target node are not
// extended further.
func (ix *index) enumerate(cfg Config, isTarget []bool) []found {
	s := &search{ix: ix}
	if ix.launcher >= 0 {
		s.push(state{node: ix.launcher, edge: -1, parent: -1})
	}
	if !cfg.LauncherOnly {
		for _, n := range ix.forced {
			s.push(state{node: n, edge: -1, parent: -1, cost: 1})
		}
	}
	var out []found
	expansions := 0
	for len(s.heap) > 0 {
		i := s.pop()
		st := s.states[i]
		if isTarget[st.node] {
			out = append(out, s.walk(i))
			if len(out) >= cfg.MaxPaths {
				break
			}
			continue
		}
		if int(st.depth) >= cfg.MaxDepth {
			continue
		}
		expansions++
		if expansions > cfg.MaxExpand {
			break
		}
		for _, e := range ix.out[st.node] {
			to := ix.to[e]
			if s.onPath(i, to) {
				continue
			}
			s.push(state{node: to, edge: e, parent: i, depth: st.depth + 1, cost: st.cost + ix.cost[e]})
		}
	}
	return out
}
