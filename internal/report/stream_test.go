package report

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
)

// TestRunStreamedFoldsInOrderWithinWindow drives the streaming scheduler
// with jittered stage timing and checks its whole contract at once: every
// item is folded exactly once, strictly in index order, the in-flight
// high-water mark never exceeds the window, and a ring slot indexed i%window
// is never written by a new item before the previous occupant was folded.
func TestRunStreamedFoldsInOrderWithinWindow(t *testing.T) {
	const n, parallel = 100, 3
	window := streamWindow(parallel)
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	slots := make([]int64, window) // current occupant per ring slot
	for i := range slots {
		slots[i] = -1
	}
	var folded []int
	maxLive := runStreamed(n, parallel, []func(int) bool{
		func(i int) bool {
			if !atomic.CompareAndSwapInt64(&slots[i%window], -1, int64(i)) {
				t.Errorf("slot %d still occupied by %d when item %d arrived", i%window, slots[i%window], i)
			}
			time.Sleep(delays[i])
			return true
		},
		func(i int) bool {
			time.Sleep(delays[(i*13)%n])
			return i%10 != 3 // some items drop mid-pipeline; they still fold
		},
	}, func(i int) {
		folded = append(folded, i)
		atomic.StoreInt64(&slots[i%window], -1)
	})
	if len(folded) != n {
		t.Fatalf("folded %d items, want %d", len(folded), n)
	}
	for i, v := range folded {
		if v != i {
			t.Fatalf("fold out of order at %d: got item %d", i, v)
		}
	}
	if maxLive < 2 || maxLive > window {
		t.Errorf("maxLive=%d, want in [2, %d]", maxLive, window)
	}
}

// TestRunStreamedSerial pins the sequential fallback: parallel 1 folds items
// on the calling goroutine with at most one in flight.
func TestRunStreamedSerial(t *testing.T) {
	var order []int
	live := runStreamed(5, 1, []func(int) bool{
		func(i int) bool { return true },
	}, func(i int) { order = append(order, i) })
	if live != 1 {
		t.Errorf("serial maxLive=%d, want 1", live)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial fold order %v", order)
	}
}

// TestStreamedStudyParity pins the `-stream` entry point: RunStudyStreamed
// must reproduce the serial study bit for bit on the 217-app corpus — same
// totals, same packed/fragment partition, same sorted per-category breakdown —
// under a parallel schedule that forces heavy out-of-order completion, and its
// stats must describe that schedule.
func TestStreamedStudyParity(t *testing.T) {
	serial, err := RunStudyWith(StudyConfig{Seed: 1, Parallel: 1, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	streamed, st, err := RunStudyStreamed(StudyConfig{Seed: 1, Parallel: 8, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, streamed) {
		t.Errorf("streamed study differs from serial:\nserial   %+v\nstreamed %+v", serial, streamed)
	}
	if RenderStudy(serial) != RenderStudy(streamed) {
		t.Error("rendered study reports differ")
	}
	if st.Apps != serial.Total || st.Window != 16 || st.MaxLive > st.Window {
		t.Errorf("stream stats apps %d window %d max in-flight %d; want %d apps, window 16, max in-flight within it",
			st.Apps, st.Window, st.MaxLive, serial.Total)
	}
	// The headline number the paper reports; drift here means the corpus or
	// the fold changed, not just scheduling.
	if pct := streamed.FragmentSharePct(); pct < 91.2 || pct > 91.4 {
		t.Errorf("fragment share %.2f%%, want ≈91.30%%", pct)
	}
}

// TestStreamedEvalParity runs the 15-app Table I evaluation serially and at
// Parallel 6 (window 12, so most apps are in flight at once) and requires
// bit-identical rendered Tables I and II and averages. The schedule must be
// a pure scheduling change.
func TestStreamedEvalParity(t *testing.T) {
	run := func(parallel int) *Evaluation {
		t.Helper()
		cfg := DefaultEvalConfig()
		cfg.Parallel = parallel
		cfg.Cache = artifact.NewCache()
		ev, err := RunEvaluation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	serial := run(1)
	streamed := run(6)
	if got, want := RenderTable1(streamed.BuildTable1()), RenderTable1(serial.BuildTable1()); got != want {
		t.Errorf("Table I differs under streaming:\n--- serial ---\n%s\n--- streamed ---\n%s", want, got)
	}
	if got, want := RenderTable2(streamed.BuildTable2()), RenderTable2(serial.BuildTable2()); got != want {
		t.Error("Table II differs under streaming")
	}
	a1, f1, fiva1 := serial.BuildTable1().Averages()
	a2, f2, fiva2 := streamed.BuildTable1().Averages()
	if a1 != a2 || f1 != f2 || fiva1 != fiva2 {
		t.Errorf("averages differ: serial (%.2f %.2f %.2f) streamed (%.2f %.2f %.2f)",
			a1, f1, fiva1, a2, f2, fiva2)
	}
}

// TestStreamedFamilyBoundedLiveSet pins the release discipline on a family
// corpus: after a run the artifact cache holds zero live entries (every app
// was evicted at fold time), and the in-flight high-water mark respected the
// window of 2×Parallel.
func TestStreamedFamilyBoundedLiveSet(t *testing.T) {
	cache := artifact.NewCache()
	fam := corpus.NewFamily(300, 2)
	res, st, err := RunStudyStreamed(StudyConfig{Source: fam, Parallel: 3, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 300 || res.Analyzable == 0 {
		t.Fatalf("family study shape off: %+v", res)
	}
	if st.Window != 6 || st.MaxLive > st.Window {
		t.Errorf("max in-flight %d, window %d; want window 6 and max in-flight within it", st.MaxLive, st.Window)
	}
	if live := cache.Live(); live != 0 {
		t.Errorf("cache holds %d live entries after the run, want 0 (release leak)", live)
	}
	// A serial run over the same lazy source agrees exactly.
	serial, err := RunStudyWith(StudyConfig{Source: fam, Parallel: 1, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, res) {
		t.Error("parallel family study diverged from the serial run")
	}
}

// TestStreamedFamilyBoundedHeap is the bounded-memory regression test: the
// sampled peak heap of a streamed family study must not scale with the
// corpus. A 10× larger corpus through the same window has to stay within a
// small factor of the smaller run's peak — a fold that kept every app's
// outcome would grow roughly linearly, which is exactly the regression this
// test exists to catch.
func TestStreamedFamilyBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale heap measurement")
	}
	peakAt := func(n int) uint64 {
		t.Helper()
		_, st, err := RunStudyStreamed(StudyConfig{
			Source: corpus.NewFamily(n, 2), Parallel: 4, Cache: artifact.NewCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return st.PeakHeapBytes
	}
	small := peakAt(150)
	large := peakAt(1500)
	// Floor the baseline: tiny corpora can finish before the runtime grows
	// the heap at all, and GC timing adds noise in both directions.
	floor := uint64(48 << 20)
	base := small
	if base < floor {
		base = floor
	}
	if large > 5*base/2 {
		t.Errorf("peak heap grew with corpus size: %d apps -> %d bytes, %d apps -> %d bytes (limit %d)",
			150, small, 1500, large, 5*base/2)
	}
}
