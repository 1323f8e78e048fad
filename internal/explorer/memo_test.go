package explorer

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/paths"
	"fragdroid/internal/statics"
)

// memoTestSpecs are the apps the memo tests run on: the demo app plus two
// Table I apps with many sensitive targets.
func memoTestSpecs() []*corpus.AppSpec {
	rows := corpus.PaperRows()
	return []*corpus.AppSpec{corpus.DemoSpec(), corpus.PaperSpec(rows[0]), corpus.PaperSpec(rows[1])}
}

func extractSpec(t testing.TB, spec *corpus.AppSpec) *statics.Extraction {
	t.Helper()
	app, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func targetAPIs(ex *statics.Extraction) []string {
	apis := make([]string, 0, len(ex.StaticReach.APIs))
	for api := range ex.StaticReach.APIs {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	return apis
}

// runRecord is what one run leaves for comparison.
type runRecord struct {
	Transcript  []string
	Stats       any
	InitialPlan []string
	SitePlans   []paths.SitePlan
	Seeded      int
	Skipped     bool
}

func record(tr *TargetResult) runRecord {
	rec := runRecord{SitePlans: tr.SitePlans, Seeded: tr.Seeded, Skipped: tr.Skipped}
	if tr.Result != nil {
		rec.Transcript = tr.Result.Transcript
		rec.Stats = tr.Result.Stats
		for _, item := range tr.Result.InitialPlan {
			rec.InitialPlan = append(rec.InitialPlan, item.String())
		}
	}
	return rec
}

// recordOf returns a recorder for (result, error) pairs that fails the test
// on an error.
func recordOf(t *testing.T) func(*TargetResult, error) runRecord {
	return func(tr *TargetResult, err error) runRecord {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return record(tr)
	}
}

// runAll explores every static target of the extraction undirected and
// directed, plus one full exploration, in a fixed order.
func runAll(t *testing.T, ex *statics.Extraction) []runRecord {
	t.Helper()
	cfg := DefaultConfig()
	rec := recordOf(t)
	var out []runRecord
	for _, api := range targetAPIs(ex) {
		out = append(out, rec(ExploreTarget(ex, cfg, api)))
		out = append(out, rec(ExploreTargetDirected(ex, cfg, api)))
	}
	res, err := ExploreExtracted(ex, cfg)
	out = append(out, rec(&TargetResult{Result: res}, err))
	return out
}

// TestWarmExtractionMatchesFresh: runs over an extraction whose plan memo is
// already warm must be byte-identical — transcripts, Stats, initial queue,
// site plans — to the same runs over a freshly extracted copy. This shows
// the shared initial queue, its pre-rendered lines and the memoised
// enumerations are never mutated by a run.
func TestWarmExtractionMatchesFresh(t *testing.T) {
	for _, spec := range memoTestSpecs() {
		warm := extractSpec(t, spec)
		runAll(t, warm)
		got := runAll(t, warm)
		want := runAll(t, extractSpec(t, spec))
		if len(got) != len(want) {
			t.Fatalf("%s: %d warm runs vs %d fresh", spec.Package, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: run %d differs between a warm and a fresh extraction", spec.Package, i)
			}
		}
	}
}

// TestConcurrentPlanningSharedExtraction runs path planning and directed
// exploration concurrently on one cold extraction (run it under -race): the
// first calls race to fill the index and enumeration memos, and every result
// must equal the sequential one on a separate extraction.
func TestConcurrentPlanningSharedExtraction(t *testing.T) {
	spec := memoTestSpecs()[1]
	ref := extractSpec(t, spec)
	cfg := DefaultConfig()
	pcfg := paths.Config{DefaultInput: cfg.DefaultInput}
	apis := targetAPIs(ref)
	wantPlans := make([][]paths.SitePlan, len(apis))
	wantRuns := make([]runRecord, len(apis))
	for i, api := range apis {
		wantPlans[i] = paths.New(ref, pcfg).PlanAPI(api)
		wantRuns[i] = recordOf(t)(ExploreTargetDirected(ref, cfg, api))
	}

	shared := extractSpec(t, spec)
	const workers = 4
	var wg sync.WaitGroup
	gotPlans := make([][][]paths.SitePlan, workers)
	gotRuns := make([][]runRecord, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, api := range apis {
				if w%2 == 0 {
					gotPlans[w] = append(gotPlans[w], paths.New(shared, pcfg).PlanAPI(api))
					continue
				}
				tr, err := ExploreTargetDirected(shared, cfg, api)
				if err != nil {
					errs[w] = err
					return
				}
				gotRuns[w] = append(gotRuns[w], record(tr))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if w%2 == 0 && !reflect.DeepEqual(gotPlans[w], wantPlans) {
			t.Errorf("worker %d: concurrent PlanAPI results differ from sequential", w)
		}
		if w%2 == 1 && !reflect.DeepEqual(gotRuns[w], wantRuns) {
			t.Errorf("worker %d: concurrent directed runs differ from sequential", w)
		}
	}
}

// sensitiveAPIs lists every API with a static site in the extraction,
// sorted.
func sensitiveAPIs(ex *statics.Extraction) []string {
	apis := make([]string, 0, len(ex.SensitiveSites))
	for api := range ex.SensitiveSites {
		apis = append(apis, api)
	}
	sort.Strings(apis)
	return apis
}

// TestPlanForAPIMemoMatchesFresh: on every built-in app, the memoised
// PlanForAPI deep-equals a fresh computation for every API, and a second
// call returns the memoised plans rather than recomputing them.
func TestPlanForAPIMemoMatchesFresh(t *testing.T) {
	for _, spec := range builtinSpecs() {
		ex := extractSpec(t, spec)
		for _, api := range sensitiveAPIs(ex) {
			got := PlanForAPI(ex, api)
			if want := planForAPI(ex, api); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: memoised plans differ from a fresh computation:\n got %+v\nwant %+v", spec.Package, api, got, want)
			}
			if again := PlanForAPI(ex, api); len(again) > 0 && &again[0] != &got[0] {
				t.Errorf("%s %s: second PlanForAPI recomputed the plans", spec.Package, api)
			}
		}
	}
}

// TestPlanForAPIConcurrentFirstCalls races the first PlanForAPI calls on one
// cold extraction (run it under -race): every caller must get plans equal to
// the sequential ones on a separate extraction.
func TestPlanForAPIConcurrentFirstCalls(t *testing.T) {
	spec := memoTestSpecs()[1]
	ref := extractSpec(t, spec)
	apis := sensitiveAPIs(ref)
	want := make([][]TargetPlan, len(apis))
	for i, api := range apis {
		want[i] = planForAPI(ref, api)
	}
	shared := extractSpec(t, spec)
	const workers = 4
	got := make([][][]TargetPlan, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, api := range apis {
				got[w] = append(got[w], PlanForAPI(shared, api))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d: concurrent PlanForAPI results differ from sequential", w)
		}
	}
}

var benchTargetSink *TargetResult

// BenchmarkExploreTargets runs one targeted study app's every static API
// through both targeted modes per iteration, the unit of work the directed
// study repeats per seed. Run with -benchmem to track allocs/op.
func BenchmarkExploreTargets(b *testing.B) {
	spec := memoTestSpecs()[1]
	ex := extractSpec(b, spec)
	apis := targetAPIs(ex)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, api := range apis {
			for _, run := range []func(*statics.Extraction, Config, string) (*TargetResult, error){ExploreTarget, ExploreTargetDirected} {
				tr, err := run(ex, cfg, api)
				if err != nil {
					b.Fatal(err)
				}
				benchTargetSink = tr
			}
		}
	}
}
