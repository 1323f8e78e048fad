// Package fragdroid_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index). Each benchmark reports the reproduced headline numbers
// as custom metrics, so `go test -bench . -benchmem` doubles as the
// reproduction record:
//
//	E1  BenchmarkStudyFragmentUsage    §VII-A, "91% of 217 apps use Fragments"
//	E2  BenchmarkTable1Coverage        Table I, 71.94% / 66% average coverage
//	E3  BenchmarkTable2SensitiveAPIs   Table II, 46 APIs / 269 relations / 49%
//	E4  BenchmarkAFTMConstruction      Figure 5, AFTM build from static code
//	E5  BenchmarkChallengeApps         Figures 1–2, tab & hidden-drawer apps
//	A1  BenchmarkAblationReflection    §VI-A Case 1/2 reflection mechanism
//	A2  BenchmarkAblationForcedStart   §VI-C forced empty-Intent second loop
//	A3  BenchmarkBaselineComparison    §VII-C "traditional tools miss ≥9.6%"
//	M1  Benchmark{SmaliParse,DeviceStep,ArchiveRoundTrip,ExploreDemo}
//	P1  BenchmarkStudyParallel         217-app study on 1..NumCPU workers
//	P2  BenchmarkEvaluationCached      repeated evaluation against a warm cache
//	G3  BenchmarkFamilyBuild           corpus-build layer of the family-lint round
package fragdroid_test

import (
	"fmt"
	"runtime"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/baseline"
	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/lint"
	"fragdroid/internal/report"
	"fragdroid/internal/session"
	"fragdroid/internal/smali"
	"fragdroid/internal/statics"
)

// E1 — the 217-app fragment-usage study.
func BenchmarkStudyFragmentUsage(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res, err := report.RunStudy(1)
		if err != nil {
			b.Fatal(err)
		}
		share = res.FragmentSharePct()
	}
	b.ReportMetric(share, "%apps-with-fragments")
}

// E2 — Table I: full FragDroid over the 15-app corpus.
func BenchmarkTable1Coverage(b *testing.B) {
	var actPct, fragPct, fivaPct float64
	for i := 0; i < b.N; i++ {
		ev, err := report.RunEvaluation(report.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		actPct, fragPct, fivaPct = ev.BuildTable1().Averages()
	}
	b.ReportMetric(actPct, "%activity-coverage")
	b.ReportMetric(fragPct, "%fragment-coverage")
	b.ReportMetric(fivaPct, "%fiva-coverage")
}

// E3 — Table II: the sensitive-operations matrix and its aggregates.
func BenchmarkTable2SensitiveAPIs(b *testing.B) {
	var apis, relations float64
	var fragShare, fragOnly float64
	for i := 0; i < b.N; i++ {
		ev, err := report.RunEvaluation(report.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		st := ev.BuildTable2().ComputeStats()
		apis = float64(st.DistinctAPIs)
		relations = float64(st.TotalInvocations)
		fragShare = 100 * st.FragmentShare
		fragOnly = 100 * st.FragmentOnlyShare
	}
	b.ReportMetric(apis, "sensitive-APIs")
	b.ReportMetric(relations, "invocation-relations")
	b.ReportMetric(fragShare, "%fragment-associated")
	b.ReportMetric(fragOnly, "%fragment-only")
}

// E4 — Figure 5: AFTM construction by static extraction.
func BenchmarkAFTMConstruction(b *testing.B) {
	app := demoApp(b)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		ex, err := statics.Extract(app)
		if err != nil {
			b.Fatal(err)
		}
		c := ex.Model.Count()
		edges = c.E1 + c.E2 + c.E3
	}
	b.ReportMetric(float64(edges), "aftm-edges")
}

// E5 — Figures 1 and 2: the tab-switch and hidden-drawer challenge apps.
func BenchmarkChallengeApps(b *testing.B) {
	tabs := &corpus.AppSpec{
		Package: "com.challenge.tabs",
		Activities: []corpus.ActivitySpec{{
			Name: "Main", Launcher: true,
			Wires: []corpus.FragmentWire{
				{Fragment: "Category", Kind: corpus.WireTxnOnCreate},
				{Fragment: "Recent", Kind: corpus.WireTxnButton},
			},
		}},
		Fragments: []corpus.FragmentSpec{{Name: "Category"}, {Name: "Recent"}},
		Switches:  []corpus.FragmentSwitch{{From: "Category", To: "Recent"}},
	}
	drawer := &corpus.AppSpec{
		Package: "com.challenge.drawer",
		Activities: []corpus.ActivitySpec{{
			Name: "Main", Launcher: true,
			Wires: []corpus.FragmentWire{
				{Fragment: "Wallpapers", Kind: corpus.WireTxnOnCreate},
				{Fragment: "Categories", Kind: corpus.WireTxnSlideDrawer},
			},
		}},
		Fragments: []corpus.FragmentSpec{{Name: "Wallpapers"}, {Name: "Categories"}},
	}
	apps := make([]*apk.App, 0, 2)
	for _, s := range []*corpus.AppSpec{tabs, drawer} {
		app, err := corpus.BuildApp(s)
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, app)
	}
	b.ResetTimer()
	var visited float64
	for i := 0; i < b.N; i++ {
		visited = 0
		for _, app := range apps {
			res, err := explorer.Explore(app, explorer.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			visited += float64(len(res.VisitedFragments()))
		}
	}
	b.ReportMetric(visited, "challenge-fragments-visited")
}

// corpusApps fetches the 15 Table I apps for the ablation benches through
// the process-wide artifact cache: every ablation shares one set of builds.
func corpusApps(b *testing.B) []*apk.App {
	b.Helper()
	var apps []*apk.App
	for _, row := range corpus.PaperRows() {
		app, err := artifact.Default.App(corpus.PaperSpec(row))
		if err != nil {
			b.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

// demoApp fetches the demo app through the process-wide artifact cache.
func demoApp(b *testing.B) *apk.App {
	b.Helper()
	app, err := artifact.Default.App(corpus.DemoSpec())
	if err != nil {
		b.Fatal(err)
	}
	return app
}

// P1 — the 217-app study on a bounded worker pool. Every iteration gets a
// fresh cache, so the measured work is real building and scanning rather
// than memoized lookups; the workers-N/workers-1 time ratio is the headline.
func BenchmarkStudyParallel(b *testing.B) {
	workerSet := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		workerSet = append(workerSet, n)
	}
	for _, workers := range workerSet {
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				res, err := report.RunStudyWith(report.StudyConfig{
					Seed:     1,
					Parallel: workers,
					Cache:    artifact.NewCache(),
				})
				if err != nil {
					b.Fatal(err)
				}
				share = res.FragmentSharePct()
			}
			b.ReportMetric(share, "%apps-with-fragments")
		})
	}
}

// P2 — repeated evaluation against a warmed artifact cache: each run pays
// for exploration only. The reported rebuild/re-extraction counts must be
// zero; cache-hits/op shows the lookups served from memory.
func BenchmarkEvaluationCached(b *testing.B) {
	cache := artifact.NewCache()
	cfg := report.DefaultEvalConfig()
	cfg.Cache = cache
	if _, err := report.RunEvaluation(cfg); err != nil {
		b.Fatal(err)
	}
	warm := cache.Stats()
	b.ResetTimer()
	var actPct, fragPct float64
	for i := 0; i < b.N; i++ {
		ev, err := report.RunEvaluation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		actPct, fragPct, _ = ev.BuildTable1().Averages()
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits-warm.Hits)/float64(b.N), "cache-hits/op")
	b.ReportMetric(float64(st.Builds-warm.Builds), "rebuilds")
	b.ReportMetric(float64(st.Extractions-warm.Extractions), "re-extractions")
	b.ReportMetric(actPct, "%activity-coverage")
	b.ReportMetric(fragPct, "%fragment-coverage")
}

func runAblation(b *testing.B, mutate func(*explorer.Config)) (actPct, fragPct float64) {
	apps := corpusApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actPct, fragPct = 0, 0
		for _, app := range apps {
			cfg := explorer.DefaultConfig()
			cfg.MaxTestCases = 4000
			mutate(&cfg)
			res, err := explorer.Explore(app, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ex := res.Extraction
			actPct += 100 * float64(len(res.VisitedActivities())) / float64(len(ex.EffectiveActivities))
			fragPct += 100 * float64(len(res.VisitedFragments())) / float64(len(ex.EffectiveFragments))
		}
		actPct /= float64(len(apps))
		fragPct /= float64(len(apps))
	}
	return actPct, fragPct
}

// A1 — reflection ablation: the fragment-coverage delta is the value of the
// Java-reflection switching mechanism.
func BenchmarkAblationReflection(b *testing.B) {
	for _, tc := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			act, frag := runAblation(b, func(c *explorer.Config) { c.UseReflection = tc.on })
			b.ReportMetric(act, "%activity-coverage")
			b.ReportMetric(frag, "%fragment-coverage")
		})
	}
}

// A2 — forced-start ablation: the activity-coverage delta is the value of
// the §VI-C second loop.
func BenchmarkAblationForcedStart(b *testing.B) {
	for _, tc := range []struct {
		name string
		on   bool
	}{{"on", true}, {"off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			act, frag := runAblation(b, func(c *explorer.Config) { c.UseForcedStart = tc.on })
			b.ReportMetric(act, "%activity-coverage")
			b.ReportMetric(frag, "%fragment-coverage")
		})
	}
}

// A3 — the three-system comparison of §VII-C.
func BenchmarkBaselineComparison(b *testing.B) {
	var missedAct, missedMonkey float64
	for i := 0; i < b.N; i++ {
		cmp, err := report.RunComparison(report.DefaultEvalConfig(), 7, 1500)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range cmp.Rows {
			switch r.System {
			case "Activity-level MBT":
				missedAct = r.MissedFragmentAPIPct
			case "Monkey":
				missedMonkey = r.MissedFragmentAPIPct
			}
		}
	}
	b.ReportMetric(missedAct, "%missed-by-activity-mbt")
	b.ReportMetric(missedMonkey, "%missed-by-monkey")
}

// A4 — the §VIII input-generation extension: hint-driven value synthesis vs
// the paper's manual input file vs nothing.
func BenchmarkAblationInputGen(b *testing.B) {
	city, _ := inputgen.ValueFor("city")
	spec := &corpus.AppSpec{
		Package: "com.weather.bench",
		Activities: []corpus.ActivitySpec{
			{Name: "Main", Launcher: true},
			{Name: "Forecast", RequiresExtra: "place"},
			{Name: "Radar", RequiresExtra: "place"},
		},
		Transition: []corpus.Transition{
			{From: "Main", To: "Forecast", Kind: corpus.TransButton,
				Gate: &corpus.InputGate{Expected: city, Hint: "Enter a city"}},
			{From: "Forecast", To: "Radar", Kind: corpus.TransButton,
				Gate: &corpus.InputGate{Expected: city, Hint: "city for radar"}},
		},
	}
	app, err := corpus.BuildApp(spec)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		gen  bool
	}{{"heuristic", true}, {"none", false}} {
		b.Run(tc.name, func(b *testing.B) {
			var visited float64
			for i := 0; i < b.N; i++ {
				cfg := explorer.DefaultConfig()
				if tc.gen {
					cfg.InputGen = &inputgen.Heuristic{}
				}
				res, err := explorer.Explore(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				visited = float64(len(res.VisitedActivities()))
			}
			b.ReportMetric(visited, "activities-visited")
		})
	}
}

// A7 — the BACK-navigation engineering optimization: identical coverage,
// fewer instrumentation runs than the paper's kill-and-restart discipline.
func BenchmarkAblationBackNav(b *testing.B) {
	for _, tc := range []struct {
		name string
		on   bool
	}{{"restart", false}, {"backnav", true}} {
		b.Run(tc.name, func(b *testing.B) {
			apps := corpusApps(b)
			b.ResetTimer()
			var cases float64
			for i := 0; i < b.N; i++ {
				cases = 0
				for _, app := range apps {
					cfg := explorer.DefaultConfig()
					cfg.MaxTestCases = 4000
					cfg.UseBackNavigation = tc.on
					res, err := explorer.Explore(app, cfg)
					if err != nil {
						b.Fatal(err)
					}
					cases += float64(res.TestCases)
				}
			}
			b.ReportMetric(cases, "test-cases-total")
		})
	}
}

// A5 — coverage as a function of test budget, the cost/coverage trade-off
// curve: FragDroid's systematic test cases vs Monkey's raw events on the
// demo app.
func BenchmarkBudgetSweep(b *testing.B) {
	app := demoApp(b)
	for _, budget := range []int{5, 15, 60, 600} {
		budget := budget
		b.Run(fmt.Sprintf("fragdroid-%dcases", budget), func(b *testing.B) {
			var acts, frags float64
			for i := 0; i < b.N; i++ {
				cfg := explorer.DefaultConfig()
				cfg.MaxTestCases = budget
				res, err := explorer.Explore(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				acts = float64(len(res.VisitedActivities()))
				frags = float64(len(res.VisitedFragments()))
			}
			b.ReportMetric(acts, "activities")
			b.ReportMetric(frags, "fragments")
		})
	}
	for _, events := range []int{100, 500, 2000} {
		events := events
		b.Run(fmt.Sprintf("monkey-%devents", events), func(b *testing.B) {
			var acts float64
			for i := 0; i < b.N; i++ {
				res, err := baseline.Monkey(app, baseline.MonkeyConfig{Seed: 7, Events: events})
				if err != nil {
					b.Fatal(err)
				}
				acts = float64(len(res.VisitedActivities))
			}
			b.ReportMetric(acts, "activities")
		})
	}
}

// A6 — the static-vs-dynamic sensitive-site gap (SmartDroid motivation).
func BenchmarkStaticDynamicGap(b *testing.B) {
	var static, confirmed float64
	for i := 0; i < b.N; i++ {
		ev, err := report.RunEvaluation(report.DefaultEvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		static, confirmed = 0, 0
		for _, r := range ev.StaticDynamicGap() {
			static += float64(r.StaticSites)
			confirmed += float64(r.ConfirmedSites)
		}
	}
	b.ReportMetric(static, "static-sites")
	b.ReportMetric(confirmed, "confirmed-sites")
}

// M1 — substrate microbenchmarks.

func BenchmarkSmaliParse(b *testing.B) {
	app, err := corpus.BuildApp(corpus.PaperSpec(corpus.PaperRows()[9])) // ovuline: largest
	if err != nil {
		b.Fatal(err)
	}
	arch, err := app.Pack()
	if err != nil {
		b.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, p := range arch.WithPrefix(apk.SmaliDir) {
		data, _ := arch.Get(p)
		files[p] = data
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smali.ParseProgram(files); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchiveRoundTrip(b *testing.B) {
	app := demoApp(b)
	arch, err := app.Pack()
	if err != nil {
		b.Fatal(err)
	}
	raw := arch.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apk.LoadBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceStep(b *testing.B) {
	app := demoApp(b)
	res, err := baseline.Monkey(app, baseline.MonkeyConfig{Seed: 1, Events: 1})
	_ = res
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Monkey(app, baseline.MonkeyConfig{Seed: int64(i), Events: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreScale measures how full exploration scales with app size
// (A3E needed 87–104 minutes per real app; the simulator explores a
// 100-activity app in well under a second).
func BenchmarkExploreScale(b *testing.B) {
	for _, n := range []int{10, 30, 100} {
		n := n
		b.Run(fmt.Sprintf("activities-%d", n), func(b *testing.B) {
			app, err := corpus.BuildApp(corpus.StressSpec(n))
			if err != nil {
				b.Fatal(err)
			}
			cfg := explorer.DefaultConfig()
			cfg.MaxTestCases = 100000
			b.ResetTimer()
			var visited, cases float64
			for i := 0; i < b.N; i++ {
				res, err := explorer.Explore(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				visited = float64(len(res.VisitedActivities()))
				cases = float64(res.TestCases)
			}
			b.ReportMetric(visited, "activities-visited")
			b.ReportMetric(cases, "test-cases")
		})
	}
}

func BenchmarkExploreDemo(b *testing.B) {
	app := demoApp(b)
	b.ResetTimer()
	var cases int
	for i := 0; i < b.N; i++ {
		res, err := explorer.Explore(app, explorer.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		cases = res.TestCases
	}
	b.ReportMetric(float64(cases), "test-cases")
}

// G1 — whole-program call-graph construction plus both reachability
// fixpoints over the 15 Table I apps.
func BenchmarkCallgraphBuild(b *testing.B) {
	apps := corpusApps(b)
	b.ResetTimer()
	var nodes, edges float64
	for i := 0; i < b.N; i++ {
		nodes, edges = 0, 0
		for _, app := range apps {
			g := callgraph.Build(app, nil)
			_ = g.Reach(g.LauncherRoots())
			_ = g.Reach(g.ForcedRoots(g.Activities()))
			n, e := g.Size()
			nodes += float64(n)
			edges += float64(e)
		}
	}
	b.ReportMetric(nodes, "nodes")
	b.ReportMetric(edges, "edges")
}

// G3 — the corpus-build layer of the family-lint round: member spec
// generation plus BuildApp over a 2000-member family (packed members stop
// at the spec, as in the study). Run with -benchmem; allocations per round
// are half the layer's cost.
func BenchmarkFamilyBuild(b *testing.B) {
	fam := corpus.NewFamily(2000, 1)
	b.ReportAllocs()
	var built float64
	for i := 0; i < b.N; i++ {
		built = 0
		for j := 0; j < fam.Len(); j++ {
			spec := fam.At(j)
			if spec.Packed {
				continue
			}
			if _, err := corpus.BuildApp(spec); err != nil {
				b.Fatalf("member %d: %v", j, err)
			}
			built++
		}
	}
	b.ReportMetric(built, "apps")
}

// G2 — the fraglint overhead question on the 217-app study pipeline, through
// the artifact cache exactly as RunLintStudy uses it. "pipeline" is the cold
// build-and-extract cost of the dataset; "pipeline+lint" adds the full
// analyzer suite. The delta between the two is the linting cost and must
// stay under 10% of the pipeline wall-clock; lint-only isolates the analyzer
// pass against warm extractions.
func BenchmarkLintCorpus(b *testing.B) {
	specs := corpus.StudySpecs(1)
	pipeline := func(b *testing.B, withLint bool) {
		var findings float64
		for i := 0; i < b.N; i++ {
			cache := artifact.NewCache()
			findings = 0
			for _, spec := range specs {
				ex, err := cache.Extraction(spec)
				if err != nil {
					continue // packed apps, as in the study
				}
				if withLint {
					findings += float64(len(lint.Run(ex)))
				}
			}
		}
		if withLint {
			b.ReportMetric(findings, "findings")
		}
	}
	b.Run("pipeline", func(b *testing.B) { pipeline(b, false) })
	b.Run("pipeline+lint", func(b *testing.B) { pipeline(b, true) })
	b.Run("lint-only", func(b *testing.B) {
		var exs []*statics.Extraction
		for _, spec := range specs {
			ex, err := artifact.Default.Extraction(spec)
			if err != nil {
				continue
			}
			exs = append(exs, ex)
		}
		b.ResetTimer()
		var findings float64
		for i := 0; i < b.N; i++ {
			findings = 0
			for _, ex := range exs {
				findings += float64(len(lint.Run(ex)))
			}
		}
		b.ReportMetric(findings, "findings")
	})
}

// S1 — session-runtime tracing overhead: one corpus app explored with a
// no-op observer attached versus full event buffering. The trace layer is
// designed to stay within a few percent of the untraced hot path (typed
// events are only constructed while an observer is attached).
func BenchmarkSessionOverhead(b *testing.B) {
	app, err := corpus.BuildApp(corpus.PaperSpec(corpus.PaperRows()[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := explorer.Explore(app, explorer.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("noop-observer", func(b *testing.B) {
		cfg := explorer.DefaultConfig()
		cfg.Observer = session.ObserverFunc(func(session.Event) {})
		for i := 0; i < b.N; i++ {
			if _, err := explorer.Explore(app, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("buffered", func(b *testing.B) {
		var events float64
		for i := 0; i < b.N; i++ {
			cfg := explorer.DefaultConfig()
			buf := &session.TraceBuffer{}
			cfg.Observer = buf
			if _, err := explorer.Explore(app, cfg); err != nil {
				b.Fatal(err)
			}
			events = float64(buf.Len())
		}
		b.ReportMetric(events, "events")
	})
}
