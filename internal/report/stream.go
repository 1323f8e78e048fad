package report

import (
	"fmt"
	"runtime"
	"time"
)

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

// heapSampler polls runtime.ReadMemStats every 10 ms and tracks the peak
// HeapAlloc. One more sample is taken at stop, so short runs still get at
// least one reading.
type heapSampler struct {
	stopc chan struct{}
	donec chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), donec: make(chan struct{})}
	go func() {
		defer close(h.donec)
		var ms runtime.MemStats
		t := time.NewTicker(10 * time.Millisecond)
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

// RunStudyStreamed runs RunStudyWith and also reports how the scheduler
// behaved — the record behind `fragstudy -stream`. It alone samples the heap:
// a plain study pays for no sampler goroutine.
func RunStudyStreamed(cfg StudyConfig) (*StudyResult, *StreamStats, error) {
	st := &StreamStats{}
	res, err := runStudy(cfg, st)
	if err != nil {
		return nil, nil, err
	}
	return res, st, nil
}

// RenderStreamStats renders the streamed-run summary line block.
func RenderStreamStats(st *StreamStats) string {
	return fmt.Sprintf(
		"streamed: %d apps in %.2fs (%.1f apps/sec), window %d (max in-flight %d), peak heap %.1f MiB",
		st.Apps, st.Elapsed.Seconds(), st.AppsPerSec, st.Window, st.MaxLive,
		float64(st.PeakHeapBytes)/(1<<20))
}
