package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/ir"
	"fragdroid/internal/lint"
	"fragdroid/internal/paths"
	"fragdroid/internal/report"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
	"fragdroid/internal/strategy"
)

// inproc is the outcome of one in-process round, replayed or through the
// real report path.
type inproc struct {
	// out is what the CLI prints (for directed, its -directedjson record).
	out []byte
	// cache holds the artifact counters; explore the session counters of
	// the evaluation's explorations. The fidelity check compares both.
	cache   artifact.Stats
	explore session.Stats
}

// replayed is a traced round: the outcome plus what only the replay sees.
type replayed struct {
	inproc
	tr *tracer
	// counts holds the per-round layer counts, by metric name.
	counts map[string]float64
}

// replayer replays one workload's CLI invocation in process. replay calls
// the public functions the CLI path calls, serially, one span per call;
// real runs the report entry point the CLI calls, untraced, as the base the
// replay is checked and timed against.
type replayer interface {
	replay(dir string) (*replayed, error)
	real(dir string, parallel int) (*inproc, error)
}

// fleetSize is fragstudy's -devices auto: GOMAXPROCS, capped at 8.
func fleetSize() int {
	if n := runtime.GOMAXPROCS(0); n < 8 {
		return n
	}
	return 8
}

// evalConfig is the evaluation config fragstudy builds from its defaults.
func evalConfig(seed int64, cache *artifact.Cache, parallel int) report.EvalConfig {
	cfg := report.DefaultEvalConfig()
	cfg.Seed = seed
	cfg.Parallel = parallel
	cfg.Cache = cache
	cfg.Snapshots = session.NewSnapshotMemo(0)
	cfg.Devices = fleetSize()
	cfg.PersistSnapshots = true
	return cfg
}

// evalReplay holds what one replayed report.RunEvaluation leaves behind.
type evalReplay struct {
	ev    *report.Evaluation
	memo  *session.SnapshotMemo
	snaps *timedSnapshots // nil without a store
	exs   []*statics.Extraction
}

// replayEvaluation replays report.RunEvaluation for cfg with every stage
// limit at one: per Table I app, spec generation, the artifact lookups, IR
// install and exploration, then the snapshot flush.
func replayEvaluation(tr *tracer, m *cacheMirror, cfg report.EvalConfig) (*evalReplay, error) {
	r := &evalReplay{ev: &report.Evaluation{Strategy: "explorer"}, memo: cfg.Snapshots}
	if m.store != nil {
		r.snaps = &timedSnapshots{tr: tr, store: m.store}
		r.memo.AttachStore(r.snaps)
	}
	ecfg := cfg.Explorer
	ecfg.Snapshots = cfg.Snapshots
	ecfg.Devices = cfg.Devices
	for _, row := range corpus.PaperRows() {
		id := tr.begin("corpus.build")
		spec := corpus.PaperSpec(row)
		tr.end(id)
		app, err := m.App(spec)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", row.Package, err)
		}
		ex, err := m.Extraction(spec)
		if err != nil {
			return nil, fmt.Errorf("extract %s: %w", row.Package, err)
		}
		id = tr.begin("ir.install")
		ir.For(app)
		tr.end(id)
		id = tr.begin("explorer.explore")
		res, err := explorer.ExploreExtracted(ex, ecfg)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("explore %s: %w", row.Package, err)
		}
		r.exs = append(r.exs, ex)
		r.ev.Apps = append(r.ev.Apps, report.AppResult{Row: row, App: app, Result: res, Outcome: strategy.FromExplorer(res)})
	}
	id := tr.begin("memo.flush")
	err := r.memo.Flush()
	tr.end(id)
	return r, err
}

// counts gathers the layer counts an evaluation replay and its mirror saw.
// Without a store every IR install compiled in process, which the cache's
// own counters (store traffic only) do not count as a miss.
func (r *evalReplay) counts(m *cacheMirror, extra session.Stats) map[string]float64 {
	st := r.ev.TotalStats().Add(extra)
	c := mirrorCounts(m)
	if m.store == nil {
		c["ir.misses"] += float64(len(r.ev.Apps))
	}
	hits, _, _ := r.memo.DiskStats()
	indexed, decoded := r.memo.PackStats()
	c["memo.disk_hits"] = float64(hits)
	c["memo.pack_decode_ratio"] = ratio(float64(decoded), float64(indexed))
	if r.snaps != nil {
		c["artifact.bytes_read"] += float64(r.snaps.read.Load())
		c["artifact.bytes_written"] += float64(r.snaps.wrote.Load())
	}
	c["session.test_cases"] = float64(st.TestCases)
	c["session.executed_steps"] = float64(st.Steps - st.StepsSaved)
	c["session.snapshot_hit_ratio"] = ratio(float64(st.SnapshotHits), float64(st.TestCases))
	c["session.steps_saved_ratio"] = ratio(float64(st.StepsSaved), float64(st.Steps))
	c["session.evictions"] = float64(st.Evictions)
	return c
}

func mirrorCounts(m *cacheMirror) map[string]float64 {
	return map[string]float64{
		"artifact.bytes_read":    float64(m.bytesRead),
		"artifact.bytes_written": float64(m.bytesWritten),
		"artifact.disk_hits":     float64(m.stats.DiskHits),
		"artifact.disk_misses":   float64(m.stats.DiskMisses),
		"artifact.disk_writes":   float64(m.stats.DiskWrites),
		"artifact.disk_errors":   float64(m.stats.DiskErrors),
		"ir.hits":                float64(m.stats.IRHits),
		"ir.misses":              float64(m.stats.IRMisses),
	}
}

// renderTables is fragstudy -table1 -table2's output.
func renderTables(ev *report.Evaluation) []byte {
	return []byte(report.RenderTable1(ev.BuildTable1()) + "\n" + report.RenderTable2(ev.BuildTable2()) + "\n")
}

// evalWarm replays `fragstudy -table1 -table2 -cache DIR` on a filled store.
type evalWarm struct{ seed int64 }

func (w *evalWarm) replay(dir string) (*replayed, error) {
	tr := newTracer()
	m, err := newMirror(tr, dir)
	if err != nil {
		return nil, err
	}
	r, err := replayEvaluation(tr, m, evalConfig(w.seed, nil, 1))
	if err != nil {
		return nil, err
	}
	id := tr.begin("report.fold")
	out := renderTables(r.ev)
	tr.end(id)
	return &replayed{
		inproc: inproc{out: out, cache: m.stats, explore: r.ev.TotalStats()},
		tr:     tr,
		counts: r.counts(m, session.Stats{}),
	}, nil
}

func (w *evalWarm) real(dir string, parallel int) (*inproc, error) {
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		return nil, err
	}
	ev, err := report.RunEvaluation(evalConfig(w.seed, cache, parallel))
	if err != nil {
		return nil, err
	}
	return &inproc{out: renderTables(ev), cache: cache.Stats(), explore: ev.TotalStats()}, nil
}

// familyLint replays `fragstudy -lint -corpus family -n N -seed S -stream
// -cache off`: per member, spec generation, the extraction lookup (which
// builds and extracts), lint, the fold and the eviction that bounds the
// live set.
type familyLint struct {
	seed int64
	n    int
}

func (w *familyLint) replay(string) (*replayed, error) {
	tr := newTracer()
	m, err := newMirror(tr, "")
	if err != nil {
		return nil, err
	}
	id := tr.begin("corpus.build")
	fam := corpus.NewFamily(w.n, w.seed)
	tr.end(id)
	s := &report.LintStudy{Total: w.n, ByCode: make(map[string]int), BySeverity: make(map[string]int)}
	for i := 0; i < w.n; i++ {
		id := tr.begin("corpus.build")
		spec := fam.At(i)
		tr.end(id)
		ex, err := m.Extraction(spec)
		var diags []lint.Diagnostic
		packed := errors.Is(err, apk.ErrPacked)
		if err != nil && !packed {
			return nil, fmt.Errorf("lint study %s: %w", spec.Package, err)
		}
		if !packed {
			id = tr.begin("lint.run")
			diags = lint.Run(ex)
			tr.end(id)
		}
		id = tr.begin("report.fold")
		foldLint(s, packed, diags)
		tr.end(id)
		m.Evict(spec)
	}
	id = tr.begin("report.fold")
	out := []byte(report.RenderLintStudy(s) + "\n")
	tr.end(id)
	c := mirrorCounts(m)
	c["lint.findings"] = float64(s.Findings)
	return &replayed{inproc: inproc{out: out, cache: m.stats}, tr: tr, counts: c}, nil
}

// foldLint adds one app's outcome to the study the way the report
// package's fold does; the rendered summary is checked against the CLI's.
func foldLint(s *report.LintStudy, packed bool, diags []lint.Diagnostic) {
	if packed {
		s.Packed++
		return
	}
	s.Analyzed++
	if len(diags) > 0 {
		s.AppsWithFindings++
	}
	for _, d := range diags {
		s.Findings++
		s.ByCode[d.Code]++
		s.BySeverity[d.Severity.String()]++
		if d.Severity > s.Worst {
			s.Worst = d.Severity
		}
	}
}

func (w *familyLint) real(_ string, parallel int) (*inproc, error) {
	cache, err := artifact.NewPersistentCache("")
	if err != nil {
		return nil, err
	}
	s, err := report.RunLintStudy(report.StudyConfig{
		Seed: w.seed, Parallel: parallel, Cache: cache,
		Source: corpus.NewFamily(w.n, w.seed), Stream: true,
	})
	if err != nil {
		return nil, err
	}
	return &inproc{out: []byte(report.RenderLintStudy(s) + "\n"), cache: cache.Stats()}, nil
}

// directed replays `fragstudy -directed -cache off -seed S -directedjson F`:
// the evaluation, the gap classification, then for every (app, API) target
// and each of the three seeds one undirected and one path-directed targeted
// exploration.
type directed struct {
	seed int64
	// exs are the last replay's extractions, for the path-planning probe.
	exs []*statics.Extraction
}

func (w *directed) seeds() []int64 { return []int64{w.seed, w.seed + 1, w.seed + 2} }

func (w *directed) replay(string) (*replayed, error) {
	tr := newTracer()
	m, err := newMirror(tr, "")
	if err != nil {
		return nil, err
	}
	cfg := evalConfig(w.seed, nil, 1)
	r, err := replayEvaluation(tr, m, cfg)
	if err != nil {
		return nil, err
	}
	evalStats := r.ev.TotalStats()
	id := tr.begin("report.fold")
	gc := r.ev.BuildGapClassification()
	_ = report.RenderGapClassification(gc)
	tr.end(id)

	study := &report.DirectedStudy{Seeds: w.seeds()}
	var targets session.Stats
	for _, row := range corpus.PaperRows() {
		id := tr.begin("corpus.build")
		spec := corpus.PaperSpec(row)
		tr.end(id)
		ex, err := m.Extraction(spec)
		if err != nil {
			return nil, fmt.Errorf("directed study extract %s: %w", row.Package, err)
		}
		id = tr.begin("device.launch")
		launch := bareLaunchSteps(ex)
		tr.end(id)
		for _, api := range sortedAPIs(ex) {
			t := report.TargetRun{Package: row.Package, API: api, LaunchSteps: launch}
			for range study.Seeds {
				id := tr.begin("explorer.target")
				ur, err := explorer.ExploreTarget(ex, cfg.Explorer, api)
				tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("undirected target %s on %s: %w", api, row.Package, err)
				}
				id = tr.begin("explorer.directed")
				dr, err := explorer.ExploreTargetDirected(ex, cfg.Explorer, api)
				tr.end(id)
				if err != nil {
					return nil, fmt.Errorf("directed target %s on %s: %w", api, row.Package, err)
				}
				if ur.Result != nil {
					t.UndirectedSteps += float64(ur.Result.Stats.Steps)
					targets = targets.Add(ur.Result.Stats)
				}
				t.UndirectedReached = t.UndirectedReached || ur.Triggered
				if dr.Result != nil {
					t.DirectedSteps += float64(dr.Result.Stats.Steps)
					targets = targets.Add(dr.Result.Stats)
				}
				t.DirectedReached = t.DirectedReached || dr.Triggered
				t.DirectedSkipped = dr.Skipped
			}
			t.UndirectedSteps /= float64(len(study.Seeds))
			t.DirectedSteps /= float64(len(study.Seeds))
			study.Targets = append(study.Targets, t)
		}
	}
	id = tr.begin("report.fold")
	_ = report.RenderDirectedStudy(study)
	out, err := json.MarshalIndent(report.BuildDirectedBench(study, gc), "", "  ")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	w.exs = r.exs
	return &replayed{
		inproc: inproc{out: append(out, '\n'), cache: m.stats, explore: evalStats},
		tr:     tr,
		counts: r.counts(m, targets),
	}, nil
}

func (w *directed) real(_ string, parallel int) (*inproc, error) {
	cache, err := artifact.NewPersistentCache("")
	if err != nil {
		return nil, err
	}
	cfg := evalConfig(w.seed, cache, parallel)
	ev, err := report.RunEvaluation(cfg)
	if err != nil {
		return nil, err
	}
	gc := ev.BuildGapClassification()
	_ = report.RenderGapClassification(gc)
	study, err := report.RunDirectedStudy(cfg, w.seeds())
	if err != nil {
		return nil, err
	}
	_ = report.RenderDirectedStudy(study)
	out, err := json.MarshalIndent(report.BuildDirectedBench(study, gc), "", "  ")
	if err != nil {
		return nil, err
	}
	return &inproc{out: append(out, '\n'), cache: cache.Stats(), explore: ev.TotalStats()}, nil
}

// planProbe times paths.New(...).PlanAPI once per (target, seed) pair, as
// ExploreTargetDirected plans it, outside any replayed round. It returns the
// planning time and the routes lifted per target.
func (w *directed) planProbe() (time.Duration, int) {
	ecfg := report.DefaultEvalConfig().Explorer
	pcfg := paths.Config{Inputs: ecfg.Inputs, InputGen: ecfg.InputGen, DefaultInput: ecfg.DefaultInput}
	var total time.Duration
	routes := 0
	for _, ex := range w.exs {
		for _, api := range sortedAPIs(ex) {
			for s := range w.seeds() {
				start := time.Now()
				sps := paths.New(ex, pcfg).PlanAPI(api)
				total += time.Since(start)
				if s == 0 {
					for _, sp := range sps {
						routes += len(sp.Routes)
					}
				}
			}
		}
	}
	return total, routes
}

func sortedAPIs(ex *statics.Extraction) []string {
	apis := make([]string, 0, len(ex.StaticReach.APIs))
	for api := range ex.StaticReach.APIs {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	return apis
}

// bareLaunchSteps is the directed study's cold-launch cost: the steps a
// plain LaunchMain script spends on a fresh device.
func bareLaunchSteps(ex *statics.Extraction) float64 {
	dev := device.New(ex.App, device.Options{})
	robotium.Run(dev, robotium.Script{Name: "bare_launch", Ops: []robotium.Op{robotium.LaunchMain()}}, robotium.Options{})
	return float64(dev.Steps())
}
