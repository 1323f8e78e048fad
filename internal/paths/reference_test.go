package paths

import (
	"container/heap"
	"reflect"
	"sort"
	"testing"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// The reference enumerator below is the planner's original search, kept
// verbatim as a test oracle: every frontier state carries a private copy of
// its whole edge prefix, roots are rebuilt per call, and nothing is shared
// or memoised. The indexed search must reproduce its plans exactly.

type refState struct {
	node   callgraph.Node
	root   callgraph.Node
	forced bool
	edges  []callgraph.Edge
	cost   int
	seq    int
}

type refFrontier []*refState

func (f refFrontier) Len() int { return len(f) }
func (f refFrontier) Less(i, j int) bool {
	if f[i].cost != f[j].cost {
		return f[i].cost < f[j].cost
	}
	if len(f[i].edges) != len(f[j].edges) {
		return len(f[i].edges) < len(f[j].edges)
	}
	return f[i].seq < f[j].seq
}
func (f refFrontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *refFrontier) Push(x any)   { *f = append(*f, x.(*refState)) }
func (f *refFrontier) Pop() any     { old := *f; n := len(old); s := old[n-1]; *f = old[:n-1]; return s }

func (s *refState) onPath(n callgraph.Node) bool {
	if s.root == n {
		return true
	}
	for _, e := range s.edges {
		if e.To == n {
			return true
		}
	}
	return false
}

func refRoots(p *Planner) []*refState {
	g := p.ex.Graph()
	var out []*refState
	launcher := g.Launcher()
	if launcher != "" {
		out = append(out, &refState{node: callgraph.ActivityNode(launcher), root: callgraph.ActivityNode(launcher)})
	}
	if p.cfg.LauncherOnly {
		return out
	}
	acts := append([]string(nil), p.ex.EffectiveActivities...)
	sort.Strings(acts)
	for _, a := range acts {
		if a == launcher {
			continue
		}
		n := callgraph.ActivityNode(a)
		out = append(out, &refState{node: n, root: n, forced: true, cost: 1})
	}
	return out
}

func refEnumerate(p *Planner, isTarget func(callgraph.Node) bool) []Path {
	g := p.ex.Graph()
	f := refFrontier{}
	seq := 0
	for _, r := range refRoots(p) {
		r.seq = seq
		seq++
		heap.Push(&f, r)
	}
	var out []Path
	expansions := 0
	for f.Len() > 0 {
		st := heap.Pop(&f).(*refState)
		if isTarget(st.node) {
			out = append(out, Path{Root: st.root, Forced: st.forced, Edges: st.edges, Cost: st.cost})
			if len(out) >= p.cfg.MaxPaths {
				break
			}
			continue
		}
		if len(st.edges) >= p.cfg.MaxDepth {
			continue
		}
		expansions++
		if expansions > p.cfg.MaxExpand {
			break
		}
		for _, e := range g.EdgesFrom(st.node) {
			if st.onPath(e.To) {
				continue
			}
			edges := make([]callgraph.Edge, len(st.edges), len(st.edges)+1)
			copy(edges, st.edges)
			heap.Push(&f, &refState{
				node:   e.To,
				root:   st.root,
				forced: st.forced,
				edges:  append(edges, e),
				cost:   st.cost + edgeCost(e),
				seq:    seq,
			})
			seq++
		}
	}
	return out
}

func refPlanTarget(p *Planner, t Target, isTarget func(callgraph.Node) bool) SitePlan {
	return p.lowerAll(t, refEnumerate(p, isTarget))
}

func refPlanSite(p *Planner, api, owner string) SitePlan {
	t := Target{API: api, Class: owner}
	nodes := make(map[callgraph.Node]bool)
	for _, s := range p.ex.Graph().Sites() {
		if s.API == api && callgraph.OuterComponent(s.Node.Class) == owner {
			nodes[s.Node] = true
		}
	}
	if len(nodes) == 0 {
		return SitePlan{Target: t, Blocked: []Unliftable{{Target: t, Cause: CauseSearchBound}}}
	}
	sp := refPlanTarget(p, t, func(n callgraph.Node) bool { return nodes[n] })
	sp.LauncherReachable = p.launcherReaches(api, owner)
	return sp
}

func refPlanAll(p *Planner) []SitePlan {
	apis := make([]string, 0, len(p.ex.StaticReach.APIs))
	for api := range p.ex.StaticReach.APIs {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	var out []SitePlan
	for _, api := range apis {
		for _, owner := range p.ex.StaticReach.APIs[api] {
			out = append(out, refPlanSite(p, api, owner))
		}
	}
	return out
}

func refPlanComponent(p *Planner, class string) SitePlan {
	t := Target{Class: class}
	node, ok := p.componentNode(class)
	if !ok {
		return SitePlan{Target: t, Blocked: []Unliftable{{Target: t, Cause: CauseSearchBound}}}
	}
	return refPlanTarget(p, t, func(n callgraph.Node) bool { return n == node })
}

// corpusExtractions extracts the demo app and the fifteen Table I apps.
func corpusExtractions(t *testing.T) []*statics.Extraction {
	t.Helper()
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	var out []*statics.Extraction
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ex)
	}
	return out
}

// rootPolicies are the two planner configurations the repo plans with: the
// forced-start default (gap classification, directed exploration) and the
// launcher-only policy of fraglint's FL013.
var rootPolicies = map[string]Config{
	"forced":   DefaultConfig(),
	"launcher": {LauncherOnly: true, DefaultInput: "x"},
}

// TestIndexedSearchMatchesReference is the differential gate of the indexed
// enumerator: on every corpus app, under both root policies, PlanAll,
// PlanSite and PlanComponent must equal the copy-per-push reference planner
// deep-equally — routes, blocked records, paths and costs.
func TestIndexedSearchMatchesReference(t *testing.T) {
	for _, ex := range corpusExtractions(t) {
		pkg := ex.App.Manifest.Package
		for name, cfg := range rootPolicies {
			p := New(ex, cfg)
			if got, want := p.PlanAll(), refPlanAll(p); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: PlanAll differs from the reference", pkg, name)
			}
			for api, owners := range ex.StaticReach.APIs {
				for _, owner := range owners {
					if got, want := p.PlanSite(api, owner), refPlanSite(p, api, owner); !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: PlanSite(%s, %s) differs from the reference", pkg, name, api, owner)
					}
				}
			}
			g := ex.Graph()
			classes := append(append(append(g.Activities(), g.Fragments()...), g.Receivers()...), pkg+".NoSuch")
			for _, class := range classes {
				if got, want := p.PlanComponent(class), refPlanComponent(p, class); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: PlanComponent(%s) differs from the reference", pkg, name, class)
				}
			}
			isMethod := func(n callgraph.Node) bool { return n.Kind == callgraph.KindMethod && n.Method == "onResume" }
			if got, want := p.Enumerate(isMethod), refEnumerate(p, isMethod); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Enumerate differs from the reference", pkg, name)
			}
		}
	}
}

// TestPlanMemoMatchesFreshPlanner: a plan served from the extraction's memo
// (a second planner over a warm extraction) equals a fresh planner's plan
// over a freshly extracted copy of the same app, under both root policies.
func TestPlanMemoMatchesFreshPlanner(t *testing.T) {
	for _, ex := range corpusExtractions(t) {
		for name, cfg := range rootPolicies {
			_ = New(ex, cfg).PlanAll() // warm the memo
			warm := New(ex, cfg).PlanAll()
			fresh, err := statics.Extract(ex.App)
			if err != nil {
				t.Fatal(err)
			}
			if cold := New(fresh, cfg).PlanAll(); !reflect.DeepEqual(warm, cold) {
				t.Errorf("%s/%s: memoised plans differ from a fresh planner's", ex.App.Manifest.Package, name)
			}
		}
	}
}
