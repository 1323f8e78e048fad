// Package callgraph builds an interprocedural whole-program graph over the
// parsed artifacts of one application: manifest, layouts and smali code. Its
// nodes are components (Activities, Fragments, BroadcastReceivers) and
// methods; its edges record how control can flow between them — lifecycle
// entry points, click-listener registration (both set-click-listener code and
// XML android:onClick attributes, i.e. Algorithm 3's widget ownership),
// intent and fragment-transaction statements recovered by jdcore, static
// <fragment> layout declarations, send-broadcast delivery, and the
// reflection-based fragment switch of §VI-A.
//
// Fixpoint reachability over the graph (Reach) yields the statically
// reachable Activity/Fragment sets and the statically reachable sensitive-API
// set: the static counterparts of the Table I coverage columns and the
// Table II matrix, and the per-app attainable-coverage ceiling that the
// dynamic explorer is measured against.
package callgraph

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/jdcore"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

// Kind classifies a graph node.
type Kind int

// Node kinds.
const (
	KindActivity Kind = iota + 1
	KindFragment
	KindReceiver
	KindMethod
)

func (k Kind) String() string {
	switch k {
	case KindActivity:
		return "activity"
	case KindFragment:
		return "fragment"
	case KindReceiver:
		return "receiver"
	case KindMethod:
		return "method"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one graph node: a component or a method. Component nodes leave
// Method empty.
type Node struct {
	Kind   Kind
	Class  string
	Method string
}

// ActivityNode returns the component node of an Activity class.
func ActivityNode(class string) Node { return Node{Kind: KindActivity, Class: class} }

// FragmentNode returns the component node of a Fragment class.
func FragmentNode(class string) Node { return Node{Kind: KindFragment, Class: class} }

// ReceiverNode returns the component node of a BroadcastReceiver class.
func ReceiverNode(class string) Node { return Node{Kind: KindReceiver, Class: class} }

// MethodNode returns the node of one method of a class.
func MethodNode(class, method string) Node {
	return Node{Kind: KindMethod, Class: class, Method: method}
}

func (n Node) String() string {
	if n.Kind == KindMethod {
		return n.Class + "." + n.Method
	}
	return fmt.Sprintf("%s[%s]", n.Kind, n.Class)
}

// Reason labels why an edge exists.
type Reason string

// Edge reasons.
const (
	// ReasonLifecycle connects a component to a lifecycle entry point the
	// framework invokes (onCreate/onStart/onResume, onCreateView, onReceive).
	ReasonLifecycle Reason = "lifecycle"
	// ReasonInner connects a component to the methods of its inner classes,
	// which execute only in the component's context (Algorithm 2's
	// getInnerClass over-approximation).
	ReasonInner Reason = "inner"
	// ReasonListener connects a set-click-listener registration site to the
	// handler method it names.
	ReasonListener Reason = "listener"
	// ReasonXMLOnClick connects a component to a handler bound by an
	// android:onClick attribute in a layout the component inflates.
	ReasonXMLOnClick Reason = "xml-onclick"
	// ReasonIntent is an explicit intent start (new Intent(A0, A1)).
	ReasonIntent Reason = "intent"
	// ReasonAction is an implicit intent start resolved via the manifest.
	ReasonAction Reason = "action"
	// ReasonTransaction is a FragmentTransaction add/replace.
	ReasonTransaction Reason = "transaction"
	// ReasonInflate is a direct fragment view inflation.
	ReasonInflate Reason = "inflate"
	// ReasonStaticFragment is a static <fragment> layout declaration.
	ReasonStaticFragment Reason = "static-fragment"
	// ReasonReflection is the §VI-A reflective fragment switch: the host uses
	// a FragmentManager, owns a container, and the fragment is transaction-
	// committed somewhere in the app.
	ReasonReflection Reason = "reflection"
	// ReasonBroadcast is a send-broadcast delivering to a subscribed receiver.
	ReasonBroadcast Reason = "broadcast"
)

// Edge is one directed graph edge.
type Edge struct {
	From, To Node
	Reason   Reason
	// Line is the smali source line of the originating statement, when the
	// edge comes from one (0 for structural edges).
	Line int
	// Ref is the widget resource reference that actuates the edge, when one
	// is statically known: the clicked widget for listener and xml-onclick
	// edges, the host's fragment container for reflection edges. Path
	// lowering (internal/paths) turns it into the concrete UI operation.
	Ref string
}

func (e Edge) String() string {
	if e.Ref != "" {
		return fmt.Sprintf("%s -> %s (%s %s)", e.From, e.To, e.Reason, e.Ref)
	}
	return fmt.Sprintf("%s -> %s (%s)", e.From, e.To, e.Reason)
}

// apiSite is a sensitive-API invocation attributed to a method.
type apiSite struct {
	api  string
	line int
}

// Site is one sensitive-API invocation site, attributed to the method node
// whose body contains it.
type Site struct {
	Node Node
	API  string
	Line int
}

// Graph is the whole-program call/transition graph of one application.
// Nodes are interned to dense int32 IDs when first seen; adjacency,
// successor IDs and API sites are slices indexed by ID.
type Graph struct {
	prog *smali.Program

	// ids interns every node the build has seen. That includes method nodes
	// that only carry API sites: they become graph nodes, and their sites
	// become listed, only once an edge touches them.
	ids     map[Node]int32
	nodes   []Node  // by ID
	inGraph []bool  // by ID: the node is a graph node
	order   []int32 // graph nodes in insertion order
	out     [][]Edge
	succ    [][]int32 // by ID, parallel to out: the ID of each edge's To

	// apis holds, per method-node ID, the sensitive APIs it invokes.
	apis [][]apiSite

	// launcher is the MAIN/LAUNCHER activity ("" if the manifest has none).
	launcher string
	// activities, fragments and receivers are the component classes the
	// graph knows, sorted.
	activities []string
	fragments  []string
	receivers  []string
}

func newGraph(prog *smali.Program, hint int) *Graph {
	return &Graph{
		prog:    prog,
		ids:     make(map[Node]int32, hint),
		nodes:   make([]Node, 0, hint),
		inGraph: make([]bool, 0, hint),
		order:   make([]int32, 0, hint),
		out:     make([][]Edge, 0, hint),
		succ:    make([][]int32, 0, hint),
		apis:    make([][]apiSite, 0, hint),
	}
}

// Launcher returns the MAIN/LAUNCHER activity class ("" if none).
func (g *Graph) Launcher() string { return g.launcher }

// Activities returns the declared Activity classes, sorted.
func (g *Graph) Activities() []string { return append([]string(nil), g.activities...) }

// Fragments returns the Fragment subclasses, sorted.
func (g *Graph) Fragments() []string { return append([]string(nil), g.fragments...) }

// Receivers returns the declared receiver classes, sorted.
func (g *Graph) Receivers() []string { return append([]string(nil), g.receivers...) }

// Nodes returns every node in insertion order.
func (g *Graph) Nodes() []Node {
	if len(g.order) == 0 {
		return nil
	}
	out := make([]Node, len(g.order))
	for i, id := range g.order {
		out[i] = g.nodes[id]
	}
	return out
}

// Edges returns every edge, grouped by source node in insertion order.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for _, id := range g.order {
		out = append(out, g.out[id]...)
	}
	return out
}

// EdgesFrom returns the out-edges of a node.
func (g *Graph) EdgesFrom(n Node) []Edge {
	id, ok := g.ids[n]
	if !ok {
		return nil
	}
	return append([]Edge(nil), g.out[id]...)
}

// Sites returns every sensitive-API invocation site, in node insertion order
// and statement order within a node — deterministic across builds.
func (g *Graph) Sites() []Site {
	var out []Site
	for _, id := range g.order {
		for _, s := range g.apis[id] {
			out = append(out, Site{Node: g.nodes[id], API: s.api, Line: s.line})
		}
	}
	return out
}

// Size reports node and edge counts.
func (g *Graph) Size() (nodes, edges int) {
	nodes = len(g.order)
	for _, es := range g.out {
		edges += len(es)
	}
	return nodes, edges
}

// intern returns n's ID, assigning the next one on first sight without
// making n a graph node.
func (g *Graph) intern(n Node) int32 {
	if id, ok := g.ids[n]; ok {
		return id
	}
	id := int32(len(g.nodes))
	g.ids[n] = id
	g.nodes = append(g.nodes, n)
	g.inGraph = append(g.inGraph, false)
	g.out = append(g.out, nil)
	g.succ = append(g.succ, nil)
	g.apis = append(g.apis, nil)
	return id
}

// addNode makes n a graph node (appending it to the insertion order the
// first time) and returns its ID.
func (g *Graph) addNode(n Node) int32 {
	id := g.intern(n)
	if !g.inGraph[id] {
		g.inGraph[id] = true
		g.order = append(g.order, id)
	}
	return id
}

// node returns the ID of a graph node.
func (g *Graph) node(n Node) (int32, bool) {
	id, ok := g.ids[n]
	return id, ok && g.inGraph[id]
}

func (g *Graph) addEdge(from, to Node, reason Reason, line int, ref string) {
	f := g.addNode(from)
	t := g.addNode(to)
	for i, e := range g.out[f] {
		if g.succ[f][i] == t && e.Reason == reason && e.Ref == ref {
			return
		}
	}
	g.out[f] = append(g.out[f], Edge{From: from, To: to, Reason: reason, Line: line, Ref: ref})
	g.succ[f] = append(g.succ[f], t)
}

// lifecycle entry points per component kind, matching the device runtime.
var (
	activityLifecycle = []string{"onCreate", "onStart", "onResume"}
	fragmentLifecycle = []string{"onCreateView", "onStart", "onResume"}
	receiverLifecycle = []string{"onReceive"}
)

// OuterComponent maps a class to the component class whose context its code
// runs in: inner classes belong to their outer class, everything else to
// itself.
func OuterComponent(class string) string {
	if i := strings.IndexByte(class, '$'); i > 0 {
		return class[:i]
	}
	return class
}

func outerComponent(class string) string { return OuterComponent(class) }

// Build constructs the whole-program graph of app. java is the jdcore
// lowering of app.Program; pass nil to have Build decompile it itself.
func Build(app *apk.App, java *jdcore.Program) *Graph {
	if java == nil {
		java = jdcore.Decompile(app.Program)
	}
	prog := app.Program
	man := app.Manifest

	// Size for about one node per class and per method.
	names := prog.Names()
	hint := len(names)
	for _, cn := range names {
		hint += len(prog.Class(cn).Methods)
	}
	g := newGraph(prog, hint)
	if entry, err := man.EntryActivity(); err == nil {
		g.launcher = entry
	}
	g.activities = append(g.activities, man.ActivityNames()...)
	sort.Strings(g.activities)
	g.fragments = prog.FragmentClasses()
	for _, r := range man.Application.Receivers {
		g.receivers = append(g.receivers, r.Name)
	}
	sort.Strings(g.receivers)

	// components keeps the deterministic declaration order (sorted activities,
	// then fragments, then receivers) — Build iterates it rather than the
	// componentOf map so Edges/EdgesFrom order is stable across runs.
	componentOf := make(map[string]Node) // class -> component node
	var components []Node
	for _, a := range g.activities {
		componentOf[a] = ActivityNode(a)
		components = append(components, ActivityNode(a))
		g.addNode(ActivityNode(a))
	}
	for _, f := range g.fragments {
		componentOf[f] = FragmentNode(f)
		components = append(components, FragmentNode(f))
		g.addNode(FragmentNode(f))
	}
	for _, r := range g.receivers {
		componentOf[r] = ReceiverNode(r)
		components = append(components, ReceiverNode(r))
		g.addNode(ReceiverNode(r))
	}

	// Per-owner facts mirroring the statics scan: inflated layouts, fragment-
	// container ownership, FragmentManager usage and transaction-committed
	// fragments, recomputed here so the package depends only on the parsed
	// artifacts.
	layoutsOf := make(map[string][]string)
	usesFM := make(map[string]bool)
	txnCommitted := make(map[string]bool)
	scanOwner := func(owner string) {
		for _, cn := range prog.ClassAndInner(owner) {
			c := prog.Class(cn)
			if c == nil {
				continue
			}
			for _, m := range c.Methods {
				for _, ins := range m.Body {
					switch ins.Op {
					case smali.OpGetFragmentManager, smali.OpGetSupportFragmentManager:
						usesFM[owner] = true
					case smali.OpSetContentView:
						if name, ok := layoutRefName(ins.Args[0]); ok {
							layoutsOf[owner] = appendUnique(layoutsOf[owner], name)
						}
					case smali.OpTxnAdd, smali.OpTxnReplace:
						txnCommitted[ins.Args[1]] = true
					}
				}
			}
		}
	}
	for _, a := range g.activities {
		scanOwner(a)
	}
	for _, f := range g.fragments {
		scanOwner(f)
	}
	for _, ln := range app.LayoutNames() {
		for _, sf := range app.Layouts[ln].StaticFragments() {
			txnCommitted[sf] = true
		}
	}

	// Component -> lifecycle entry points, resolved through the superclass
	// chain like the runtime's method dispatch.
	addLifecycle := func(comp Node, methods []string) {
		for _, m := range methods {
			if def, ok := prog.Resolve(comp.Class, m); ok {
				g.addEdge(comp, MethodNode(def, m), ReasonLifecycle, 0, "")
			}
		}
	}
	for _, a := range g.activities {
		addLifecycle(ActivityNode(a), activityLifecycle)
	}
	for _, f := range g.fragments {
		addLifecycle(FragmentNode(f), fragmentLifecycle)
	}
	for _, r := range g.receivers {
		addLifecycle(ReceiverNode(r), receiverLifecycle)
	}

	// Component -> inner-class methods: inner classes only execute in their
	// component's context, so their code is conservatively reachable with it.
	for _, comp := range components {
		for _, cn := range prog.InnerClasses(comp.Class) {
			c := prog.Class(cn)
			if c == nil {
				continue
			}
			for _, m := range c.Methods {
				g.addEdge(comp, MethodNode(cn, m.Name), ReasonInner, 0, "")
			}
		}
	}

	// Component -> XML onClick handlers: a widget's android:onClick binds to
	// the class that inflates the layout it appears in (Algorithm 3's widget
	// ownership), and static <fragment> declarations load their class.
	for _, comp := range components {
		class := comp.Class
		for _, ln := range layoutsOf[class] {
			l := app.Layouts[ln]
			if l == nil {
				continue
			}
			l.Walk(func(w *layout.Widget) bool {
				if w.OnClick != "" {
					if def, ok := prog.Resolve(class, w.OnClick); ok {
						g.addEdge(comp, MethodNode(def, w.OnClick), ReasonXMLOnClick, 0, w.IDRef)
					}
				}
				return true
			})
			for _, sf := range l.StaticFragments() {
				if fc, ok := componentOf[sf]; ok && fc.Kind == KindFragment {
					g.addEdge(comp, fc, ReasonStaticFragment, 0, "")
				}
			}
		}
	}

	// Method-level statement edges.
	for _, cn := range names {
		jc := java.Class(cn)
		if jc == nil {
			continue
		}
		owner := outerComponent(cn)
		for _, jm := range jc.Methods {
			from := MethodNode(cn, jm.Name)
			for _, st := range jm.Statements {
				switch st.Kind {
				case jdcore.StmtNewIntentExplicit, jdcore.StmtSetClass:
					if man.HasActivity(st.Class2) {
						g.addEdge(from, ActivityNode(st.Class2), ReasonIntent, st.Line, "")
					}
				case jdcore.StmtNewIntentAction, jdcore.StmtSetAction:
					if target, ok := man.ActivityForAction(st.Action); ok {
						g.addEdge(from, ActivityNode(target), ReasonAction, st.Line, "")
					}
				case jdcore.StmtTxnAdd, jdcore.StmtTxnReplace:
					if fc, ok := componentOf[st.Class1]; ok && fc.Kind == KindFragment {
						g.addEdge(from, fc, ReasonTransaction, st.Line, "")
					}
				case jdcore.StmtInflateFragmentView:
					if fc, ok := componentOf[st.Class1]; ok && fc.Kind == KindFragment {
						g.addEdge(from, fc, ReasonInflate, st.Line, "")
					}
				case jdcore.StmtSendBroadcast:
					for _, r := range man.ReceiversFor(st.Action) {
						g.addEdge(from, ReceiverNode(r), ReasonBroadcast, st.Line, "")
					}
				case jdcore.StmtSetClickListener:
					// set-click-listener registers the handler on the component
					// whose context executes the registration; Ref carries the
					// widget the registration targets.
					if def, ok := prog.Resolve(owner, st.Ident); ok {
						g.addEdge(from, MethodNode(def, st.Ident), ReasonListener, st.Line, st.Res)
					}
				case jdcore.StmtSensitiveCall:
					id := g.intern(from)
					g.apis[id] = append(g.apis[id], apiSite{api: st.API, line: st.Line})
				}
			}
		}
	}

	// Reflection edges (§VI-A): a host that obtains a FragmentManager and
	// owns a fragment container can have any of its transaction-committed
	// dependent fragments switched in reflectively.
	for _, a := range g.activities {
		if !usesFM[a] {
			continue
		}
		container, ok := firstContainer(app, layoutsOf[a])
		if !ok {
			continue
		}
		for _, f := range dependentFragments(prog, a, g.fragments) {
			if txnCommitted[f] {
				g.addEdge(ActivityNode(a), FragmentNode(f), ReasonReflection, 0, container)
			}
		}
	}

	return g
}

// firstContainer returns the first fragment-container ref declared by any of
// the layouts, in layout then tree order.
func firstContainer(app *apk.App, layouts []string) (string, bool) {
	for _, ln := range layouts {
		if l := app.Layouts[ln]; l != nil {
			if cs := l.Containers(); len(cs) > 0 {
				return cs[0], true
			}
		}
	}
	return "", false
}

// dependentFragments is Algorithm 2 in miniature: the fragment classes
// referenced by the activity or its inner classes.
func dependentFragments(prog *smali.Program, activity string, fragments []string) []string {
	fragSet := make(map[string]bool, len(fragments))
	for _, f := range fragments {
		fragSet[f] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, cn := range prog.ClassAndInner(activity) {
		for _, used := range prog.UsedClasses(cn) {
			if fragSet[used] && !seen[used] {
				seen[used] = true
				out = append(out, used)
			}
		}
	}
	sort.Strings(out)
	return out
}

func layoutRefName(ref string) (string, bool) {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	if rest, ok := strings.CutPrefix(s, "layout/"); ok && rest != "" {
		return rest, true
	}
	return "", false
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
