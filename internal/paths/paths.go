// Package paths is the static UI-path reconstruction pass: a bounded
// k-shortest-path enumeration over the interprocedural callgraph from the
// app's entry points to a target node (a sensitive-API site, a component, a
// fraglint diagnostic's position), followed by a lowering that turns every
// edge — by its Reason — into the concrete UI step that actuates it: which
// widget to click, which input gate to fill, which dialog to dismiss, which
// forced empty-Intent start to issue. Fully lowered paths compile into
// robotium route seeds the directed strategy replays; paths containing an
// edge with no UI actuation (an inner-class over-approximation with no bound
// widget, a reflection switch the fragment's constructor gates, code that
// only runs in a receiver's context) are reported as Unliftable with the
// blocking edge, not silently dropped.
//
// The root policy mirrors the reachability ceilings of internal/callgraph:
// by default paths start from the launcher plus every effective Activity
// (forced empty-Intent starts, the StaticReach policy), so the planner's
// classification sums line up with report.BuildCeiling; LauncherOnly
// restricts the search to the launcher root (the LauncherReach policy
// fraglint's FL013 checks against).
package paths

import (
	"fragdroid/internal/callgraph"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/statics"
)

// Config tunes the planner.
type Config struct {
	// MaxPaths bounds the enumerated paths per target — the k of the
	// k-shortest-path search. Zero means 8.
	MaxPaths int
	// MaxDepth bounds a path's length in edges. Zero means 16.
	MaxDepth int
	// MaxExpand bounds the total search-state expansions per target, a
	// safety valve against pathological graphs. Zero means 20000.
	MaxExpand int
	// LauncherOnly restricts the roots to the MAIN/LAUNCHER activity — what
	// a user reaches by clicking alone. The default root set adds every
	// effective Activity as a forced empty-Intent start, matching
	// StaticReach.
	LauncherOnly bool
	// Inputs, InputGen and DefaultInput resolve values for require-input
	// gates on the lowered routes, mirroring the explorer's resolution
	// order: analyst inputs first, then the generator keyed on the widget's
	// hint, then the default filler.
	Inputs       map[string]string
	InputGen     inputgen.Generator
	DefaultInput string
}

// DefaultConfig matches the explorer's default input handling.
func DefaultConfig() Config {
	return Config{DefaultInput: "test123"}
}

// Target identifies what a path search aims for.
type Target struct {
	// API is the sensitive API ("" when targeting a component or method
	// position directly).
	API string
	// Class is the owning component class.
	Class string
}

// Path is one loopless callgraph walk from a root to a target node.
type Path struct {
	// Root is the component the path enters the app at.
	Root callgraph.Node
	// Forced reports that Root is entered via a forced empty-Intent start
	// rather than the launcher.
	Forced bool
	// Edges is the walk; empty when the root itself is the target.
	Edges []callgraph.Edge
	// Cost is the search cost: the number of explicit UI actuations, with a
	// large penalty per blocking edge so liftable paths always rank first.
	Cost int
}

// End returns the path's final node.
func (p Path) End() callgraph.Node {
	if len(p.Edges) == 0 {
		return p.Root
	}
	return p.Edges[len(p.Edges)-1].To
}

// Planner enumerates and lowers paths over one app's extraction. Planners
// over one extraction share its search index and, for equal search bounds
// and root policy, its enumerations per target; lowering stays per planner
// because the input fills depend on the planner's Inputs and InputGen.
type Planner struct {
	ex  *statics.Extraction
	cfg Config
	// hints maps input-widget refs to hint text for InputGen.
	hints map[string]string
}

// New returns a planner over an extraction.
func New(ex *statics.Extraction, cfg Config) *Planner {
	if cfg.MaxPaths == 0 {
		cfg.MaxPaths = 8
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 16
	}
	if cfg.MaxExpand == 0 {
		cfg.MaxExpand = 20000
	}
	p := &Planner{ex: ex, cfg: cfg, hints: make(map[string]string)}
	for _, w := range ex.InputWidgets {
		p.hints[w.Ref] = w.Hint
	}
	return p
}

// blockedCost is the per-edge penalty for edges lowering cannot actuate.
// Any path cheaper than one blockedCost is fully liftable, so liftable paths
// always outrank blocked ones in the k-best frontier.
const blockedCost = 1 << 10

// edgeCost weights an edge by the explicit UI work its lowering needs:
// framework- and code-triggered edges are free (they fire when their source
// executes), clicks and reflective switches cost one actuation, and edges
// with no actuation carry the blocking penalty.
func edgeCost(e callgraph.Edge) int {
	switch e.Reason {
	case callgraph.ReasonListener, callgraph.ReasonXMLOnClick:
		if e.Ref == "" {
			return blockedCost
		}
		return 1
	case callgraph.ReasonReflection:
		return 1
	case callgraph.ReasonInner:
		return blockedCost
	default:
		// lifecycle, intent, action, transaction, inflate, static-fragment,
		// broadcast: automatic once the source runs.
		return 0
	}
}

// Enumerate runs the bounded k-shortest-path search to any node the target
// predicate accepts. Paths come back cheapest-first (cost, then length, then
// discovery order); paths through a target node are not extended further.
// The predicate is evaluated once per callgraph node, so it must be pure.
func (p *Planner) Enumerate(isTarget func(callgraph.Node) bool) []Path {
	ix := indexOf(p.ex)
	mask := make([]bool, len(ix.nodes))
	for i, n := range ix.nodes {
		mask[i] = isTarget(n)
	}
	return ix.paths(ix.enumerate(p.cfg, mask))
}

// enumerateMemo is Enumerate over an explicit target node set, memoised on
// the extraction under the search bounds, the root policy and the target:
// every planner over one extraction with the same bounds shares one
// enumeration per target, and each call materialises its own paths from it.
func (p *Planner) enumerateMemo(ix *index, t Target, targets []int32) []Path {
	k := enumKey{
		maxPaths: p.cfg.MaxPaths, maxDepth: p.cfg.MaxDepth, maxExpand: p.cfg.MaxExpand,
		launcherOnly: p.cfg.LauncherOnly, target: t,
	}
	fs := p.ex.Derived(k, func() any {
		if len(targets) == 0 {
			return []found(nil)
		}
		mask := make([]bool, len(ix.nodes))
		for _, n := range targets {
			mask[n] = true
		}
		return ix.enumerate(p.cfg, mask)
	}).([]found)
	return ix.paths(fs)
}
