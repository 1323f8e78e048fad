package report

import (
	"reflect"
	"testing"

	"fragdroid/internal/artifact"
)

// parallelSettings are the widths every corpus run is checked at against a
// sequential run: one worker, an odd width whose window of 6 does not divide
// the corpus, and a width whose window of 16 covers the whole 15-app
// evaluation.
var parallelSettings = []int{1, 3, 8}

// TestParallelEvaluationMatchesSequential checks that running the corpus on
// a pool of simulated devices yields byte-identical tables: every per-app
// exploration is deterministic and self-contained, and the scheduler folds
// in corpus order.
func TestParallelEvaluationMatchesSequential(t *testing.T) {
	seq := evaluation(t) // cached sequential run
	for _, p := range parallelSettings {
		cfg := DefaultEvalConfig()
		cfg.Parallel = p
		cfg.Cache = artifact.NewCache()
		par, err := RunEvaluation(cfg)
		if err != nil {
			t.Fatalf("parallel %d RunEvaluation: %v", p, err)
		}

		st1 := seq.BuildTable1()
		st2 := par.BuildTable1()
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("parallel %d Table I differs from sequential", p)
		}
		m1 := seq.BuildTable2()
		m2 := par.BuildTable2()
		if !reflect.DeepEqual(m1.Apps, m2.Apps) || !reflect.DeepEqual(m1.APIs, m2.APIs) {
			t.Fatalf("parallel %d Table II axes differ", p)
		}
		for _, api := range m1.APIs {
			for _, app := range m1.Apps {
				if m1.Cell(api, app) != m2.Cell(api, app) {
					t.Fatalf("parallel %d cell (%s, %s) differs", p, api, app)
				}
			}
		}
		if m1.ComputeStats() != m2.ComputeStats() {
			t.Fatalf("parallel %d stats differ", p)
		}
		if RenderTable1(st1) != RenderTable1(st2) || RenderRunMetrics(seq) != RenderRunMetrics(par) {
			t.Fatalf("parallel %d rendered Table I or run metrics differ", p)
		}
	}
}

// TestParallelStudyMatchesSequential checks that the 217-app study produces
// the same StudyResult — including the ByCategory order — on a worker pool
// as it does serially. Every run gets a fresh cache so none is served warm
// results from another.
func TestParallelStudyMatchesSequential(t *testing.T) {
	seq, err := RunStudyWith(StudyConfig{Seed: 1, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatalf("sequential RunStudyWith: %v", err)
	}
	for _, p := range parallelSettings {
		par, err := RunStudyWith(StudyConfig{Seed: 1, Parallel: p, Cache: artifact.NewCache()})
		if err != nil {
			t.Fatalf("parallel %d RunStudyWith: %v", p, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel %d study differs from sequential:\nseq: %+v\npar: %+v", p, seq, par)
		}
	}
}

// TestParallelLintMatchesSequential is the same check for the lint sweep over
// the 217-app dataset: the whole aggregate, per-code and per-severity counts
// included, is independent of the worker count.
func TestParallelLintMatchesSequential(t *testing.T) {
	seq, err := RunLintStudy(StudyConfig{Seed: 1, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatalf("sequential RunLintStudy: %v", err)
	}
	for _, p := range parallelSettings {
		par, err := RunLintStudy(StudyConfig{Seed: 1, Parallel: p, Cache: artifact.NewCache()})
		if err != nil {
			t.Fatalf("parallel %d RunLintStudy: %v", p, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallel %d lint study differs from sequential:\nseq: %+v\npar: %+v", p, seq, par)
		}
	}
}

// TestEvaluationCacheZeroRebuilds checks that a second evaluation against a
// warmed cache performs no app builds and no static extractions, and that
// its headline numbers are bit-identical to the first (cold) run.
func TestEvaluationCacheZeroRebuilds(t *testing.T) {
	cache := artifact.NewCache()
	cfg := DefaultEvalConfig()
	cfg.Cache = cache

	ev1, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatalf("cold RunEvaluation: %v", err)
	}
	s1 := cache.Stats()
	if s1.Builds == 0 || s1.Extractions == 0 {
		t.Fatalf("cold run did no work: %+v", s1)
	}

	ev2, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatalf("warm RunEvaluation: %v", err)
	}
	s2 := cache.Stats()
	if s2.Builds != s1.Builds {
		t.Errorf("warm run rebuilt apps: %d -> %d builds", s1.Builds, s2.Builds)
	}
	if s2.Extractions != s1.Extractions {
		t.Errorf("warm run re-extracted: %d -> %d extractions", s1.Extractions, s2.Extractions)
	}
	if s2.Hits <= s1.Hits {
		t.Errorf("warm run recorded no cache hits: %+v -> %+v", s1, s2)
	}

	a1, f1, v1 := ev1.BuildTable1().Averages()
	a2, f2, v2 := ev2.BuildTable1().Averages()
	if a1 != a2 || f1 != f2 || v1 != v2 {
		t.Errorf("cached Table I averages differ: (%v %v %v) vs (%v %v %v)", a1, f1, v1, a2, f2, v2)
	}
	if ev1.BuildTable2().ComputeStats() != ev2.BuildTable2().ComputeStats() {
		t.Error("cached Table II stats differ")
	}
}
