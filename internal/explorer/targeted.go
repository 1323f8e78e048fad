package explorer

import (
	"fmt"
	"sort"

	"fragdroid/internal/aftm"
	"fragdroid/internal/paths"
	"fragdroid/internal/robotium"
	"fragdroid/internal/statics"
)

// TargetPlan describes one statically identified site of a target sensitive
// API and the AFTM path that leads to it — the "Activity switch path that
// leads to the sensitive API calls" of SmartDroid (§IX), lifted to the
// Fragment level.
type TargetPlan struct {
	// API is the targeted sensitive API.
	API string
	// Site is the component class invoking the API.
	Site aftm.Node
	// Path is the static AFTM path from the entry, nil when the site is
	// statically unreachable (forced starts may still reach it).
	Path []aftm.Edge
}

// PlanForAPI lists the static sites of the API with their AFTM paths, sorted
// by site node. The plans are a function of the extraction alone, so they are
// computed once per (extraction, API) and shared: callers must treat the
// returned slice, and every Path in it, as read-only.
func PlanForAPI(ex *statics.Extraction, api string) []TargetPlan {
	return ex.Derived(targetPlanKey{api}, func() any { return planForAPI(ex, api) }).([]TargetPlan)
}

// targetPlanKey is the extraction-memo key of one API's target plans.
type targetPlanKey struct{ api string }

func planForAPI(ex *statics.Extraction, api string) []TargetPlan {
	var plans []TargetPlan
	for _, cls := range ex.SensitiveSites[api] {
		var node aftm.Node
		if ex.App.Program.IsFragmentClass(cls) {
			node = aftm.FragmentNode(cls)
		} else {
			node = aftm.ActivityNode(cls)
		}
		plans = append(plans, TargetPlan{API: api, Site: node, Path: ex.Model.PathTo(node)})
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Site.String() < plans[j].Site.String() })
	return plans
}

// TargetResult is the outcome of a targeted exploration.
type TargetResult struct {
	// API is the target.
	API string
	// Triggered reports whether the API was observed at runtime.
	Triggered bool
	// Plans are the static sites and paths.
	Plans []TargetPlan
	// SitePlans are the path-level plans of the directed mode: per static
	// (API, component) relation, the lifted routes and the blocked paths
	// with their blocking edges. Nil on undirected runs.
	SitePlans []paths.SitePlan
	// Seeded counts the compiled route seeds fed to the engine.
	Seeded int
	// Skipped reports that the directed mode skipped the dynamic search
	// because the target is statically unreachable or every static path is
	// unliftable — reported as such rather than searched for.
	Skipped bool
	// Result is the (possibly early-halted) exploration behind the run. It
	// is nil when the static phase found no site at all — SmartDroid-style
	// targeting skips the dynamic phase entirely then — or when the
	// directed mode skipped the search.
	Result *Result
}

// ExploreTarget runs a SmartDroid-style targeted test: the static phase
// locates the API's sites and paths, then the evolutionary exploration runs
// until the API is observed (or the model is exhausted). The exploration is
// the same engine as Explore — the target only installs an early halt, so a
// triggered result carries the concrete operation route that fired the API.
func ExploreTarget(ex *statics.Extraction, cfg Config, api string) (*TargetResult, error) {
	if api == "" {
		return nil, fmt.Errorf("explorer: empty target API")
	}
	plans := PlanForAPI(ex, api)
	if len(plans) == 0 {
		return &TargetResult{API: api}, nil
	}
	cfg.haltOnAPI = api
	res, err := ExploreExtracted(ex, cfg)
	if err != nil {
		return nil, err
	}
	return &TargetResult{
		API:       api,
		Triggered: res.Collector.Has(api),
		Plans:     plans,
		Result:    res,
	}, nil
}

// ExploreTargetDirected is the path-guided flavour of ExploreTarget: the
// paths pass enumerates launcher-to-site paths over the callgraph, lowers
// them into robotium routes, and seeds the engine with them before frontier
// exploration. A target whose every static path is unliftable (or that no
// bounded path reaches) skips the dynamic search entirely and is reported as
// such — the SitePlans carry the blocking edges.
func ExploreTargetDirected(ex *statics.Extraction, cfg Config, api string) (*TargetResult, error) {
	if api == "" {
		return nil, fmt.Errorf("explorer: empty target API")
	}
	plans := PlanForAPI(ex, api)
	p := paths.New(ex, paths.Config{
		Inputs:       cfg.Inputs,
		InputGen:     cfg.InputGen,
		DefaultInput: cfg.DefaultInput,
	})
	sitePlans := p.PlanAPI(api)
	if len(plans) == 0 && len(sitePlans) == 0 {
		return &TargetResult{API: api}, nil
	}
	seeds := SeedScripts(sitePlans)
	if len(seeds) == 0 {
		return &TargetResult{API: api, Plans: plans, SitePlans: sitePlans, Skipped: true}, nil
	}
	cfg.Seeds = append(append([]robotium.Script(nil), cfg.Seeds...), seeds...)
	cfg.haltOnAPI = api
	res, err := ExploreExtracted(ex, cfg)
	if err != nil {
		return nil, err
	}
	return &TargetResult{
		API:       api,
		Triggered: res.Collector.Has(api),
		Plans:     plans,
		SitePlans: sitePlans,
		Seeded:    len(seeds),
		Result:    res,
	}, nil
}

// SeedScripts flattens site plans into the compiled route seeds, preserving
// plan order (sorted owners) and cheapest-first routes within each plan.
func SeedScripts(sps []paths.SitePlan) []robotium.Script {
	var out []robotium.Script
	for _, sp := range sps {
		for _, r := range sp.Routes {
			out = append(out, r.Script)
		}
	}
	return out
}
