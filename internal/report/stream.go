package report

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
)

// streamWindow derives the default in-flight window from the stage limits:
// twice the widest stage, so the fold catching up never starves a stage,
// with a small floor for near-serial configurations.
func streamWindow(l StageLimits) int {
	w := l.Build
	if l.Extract > w {
		w = l.Extract
	}
	if l.Run > w {
		w = l.Run
	}
	w *= 2
	if w < 4 {
		w = 4
	}
	return w
}

// StreamStats reports how a streamed corpus run behaved: throughput, the
// admission window, the observed in-flight high-water mark (≤ Window by
// construction — the bound the bounded-memory tests assert), and the peak
// sampled heap. PeakHeapBytes is a sampled maximum of runtime.MemStats
// HeapAlloc over the run, not a guaranteed supremum; it is the number
// BENCH_PR10.json records and the regression test compares across corpus
// scales.
type StreamStats struct {
	Apps          int           `json:"apps"`
	Window        int           `json:"window"`
	MaxLive       int           `json:"max_live"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	AppsPerSec    float64       `json:"apps_per_sec"`
	PeakHeapBytes uint64        `json:"peak_heap_bytes"`
}

// heapSampler polls runtime.ReadMemStats on a fixed cadence and tracks the
// peak HeapAlloc. One more sample is taken at stop, so short runs still get
// at least one reading.
type heapSampler struct {
	stopc chan struct{}
	donec chan struct{}
	peak  uint64
}

func startHeapSampler(interval time.Duration) *heapSampler {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	h := &heapSampler{stopc: make(chan struct{}), donec: make(chan struct{})}
	go func() {
		defer close(h.donec)
		var ms runtime.MemStats
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
			case <-h.stopc:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > h.peak {
					h.peak = ms.HeapAlloc
				}
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak observed heap.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	<-h.donec
	return h.peak
}

// RunStudyStreamed performs the fragment-usage study as a streaming,
// bounded-memory pipeline — the corpus-scale path behind `fragstudy -corpus
// family -stream`. The scheduler admits at most Window apps at a time; each
// admitted app materializes its spec from the lazy source, builds (or
// store-loads), is scanned, folds into the aggregate in dataset order, and
// is then released: its artifact-cache entries evicted, its ring slot
// cleared, so the spec, the built app, its compiled IR program and its
// extraction all become garbage the moment the fold has consumed them. Peak
// heap is O(Window · app size) however large the corpus — the property the
// bounded-heap regression test pins — and the resulting StudyResult is
// bit-identical to RunStudyWith on the same corpus because both paths run
// the same studyFold in the same order.
func RunStudyStreamed(cfg StudyConfig) (*StudyResult, *StreamStats, error) {
	src := cfg.source()
	n := src.Len()
	cache := cfg.cacheOrDefault()
	parallel := cfg.Parallel
	if parallel < 1 {
		parallel = 1
	}
	limits := cfg.Stages.withDefault(parallel)
	window := cfg.Window
	if window <= 0 {
		window = streamWindow(limits)
	}

	// Ring slots: item i lives in slot i%window. runStreamed guarantees item
	// i+window is admitted only after fold(i) returned, so a slot is never
	// shared by two live items.
	type slot struct {
		spec      *corpus.AppSpec
		key       string // artifact.Key(spec), hashed once per app
		app       *apk.App
		packed    bool
		fragments bool
		err       error
	}
	slots := make([]slot, window)
	fold := newStudyFold(n)
	var errs []error

	sampler := startHeapSampler(0)
	start := time.Now()
	maxLive := runStreamed(n, window, []stage{
		{limit: limits.Build, fn: func(i int) bool {
			s := &slots[i%window]
			*s = slot{spec: src.At(i)}
			s.key = artifact.Key(s.spec)
			app, err := cache.KeyedApp(s.key, s.spec)
			if errors.Is(err, apk.ErrPacked) {
				s.packed = true
				return false
			}
			if err != nil {
				s.err = fmt.Errorf("report: study build %s: %w", s.spec.Package, err)
				return false
			}
			s.app = app
			return true
		}},
		{limit: limits.Run, fn: func(i int) bool {
			s := &slots[i%window]
			s.fragments = usesFragments(s.app)
			return true
		}},
	}, func(i int) {
		s := &slots[i%window]
		if s.err != nil {
			errs = append(errs, s.err)
		} else {
			fold.add(s.spec.Package, s.packed, s.fragments)
		}
		// Release: drop the cache's entries and the slot's references. The
		// app, its program and everything hanging off them are now
		// unreachable; the persistent store (if any) keeps its copy.
		cache.EvictKey(s.key)
		*s = slot{}
	})
	elapsed := time.Since(start)
	peak := sampler.stop()

	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	st := &StreamStats{
		Apps:          n,
		Window:        window,
		MaxLive:       maxLive,
		Elapsed:       elapsed,
		PeakHeapBytes: peak,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		st.AppsPerSec = float64(n) / secs
	}
	return fold.finish(), st, nil
}

// RenderStreamStats renders the streamed-run summary line block.
func RenderStreamStats(st *StreamStats) string {
	return fmt.Sprintf(
		"streamed: %d apps in %.2fs (%.1f apps/sec), window %d (max in-flight %d), peak heap %.1f MiB",
		st.Apps, st.Elapsed.Seconds(), st.AppsPerSec, st.Window, st.MaxLive,
		float64(st.PeakHeapBytes)/(1<<20))
}
