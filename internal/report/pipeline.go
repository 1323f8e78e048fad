package report

import "sync/atomic"

// Every corpus run — the study, the lint sweep, the evaluation and the
// bake-off — goes through one scheduler, runStreamed. Each app flows through
// up to three stages — build (corpus generation or store load), extract
// (static analysis), run (dynamic exploration or scan) — and is then folded
// into the caller's result, strictly in dataset order. Every stage admits at
// most Parallel apps at once, so an app can be exploring while the next one
// is still building, and at most streamWindow(Parallel) apps are in flight
// (admitted, not yet folded), so a 10k-app corpus holds a bounded live set.
//
// Determinism is unaffected by any of this. Stage functions touch only their
// own item's state, the fold runs on the calling goroutine in index order,
// and per-app errors are collected by the fold in that same order, so every
// derived table is identical to a sequential run.

// streamWindow is the in-flight window for a run with the given parallelism:
// twice the stage limit, so the fold catching up never starves a stage, with
// a small floor for near-serial runs.
func streamWindow(parallel int) int {
	if w := 2 * parallel; w > 4 {
		return w
	}
	return 4
}

// runStreamed drives items 0..n-1 through the stages. Each stage function
// receives the item index and reports whether the item continues to the next
// stage; a false return (an error or an early outcome, recorded by the
// closure in the item's state) drops the item, which is still folded.
//
//   - Admission control. At most streamWindow(parallel) items are in flight
//     at any moment, enforced by a counting semaphore whose token is
//     released only AFTER the item's fold completes. A worker goroutine
//     exists only per in-flight item, so a 10k-app corpus runs on window
//     goroutines, not 10k. Each stage additionally admits at most parallel
//     items at once.
//
//   - In-order fold. Each item is handed to fold exactly once, in index
//     order, on the calling goroutine. Out-of-order completions park in a
//     pending set bounded by the window.
//
// Together these give callers a ring-buffer contract: state for item i may
// live in a slot indexed i%streamWindow(parallel), because item i+window is
// admitted only after fold(i) has returned and released its token — a slot
// is never touched by two live items at once.
//
// The return value is the high-water mark of in-flight items (≤ window by
// construction); bounded-memory tests assert on it. With parallel <= 1 the
// items run strictly sequentially on the calling goroutine.
func runStreamed(n, parallel int, stages []func(i int) bool, fold func(i int)) int {
	if n <= 0 {
		return 0
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			for _, fn := range stages {
				if !fn(i) {
					break
				}
			}
			fold(i)
		}
		return 1
	}
	window := streamWindow(parallel)
	sems := make([]chan struct{}, len(stages))
	for j := range stages {
		sems[j] = make(chan struct{}, parallel)
	}
	admit := make(chan struct{}, window)
	done := make(chan int)
	var admitted atomic.Int64
	go func() {
		for i := 0; i < n; i++ {
			admit <- struct{}{}
			admitted.Add(1)
			go func(i int) {
				for j, fn := range stages {
					sems[j] <- struct{}{}
					ok := fn(i)
					<-sems[j]
					if !ok {
						break
					}
				}
				done <- i
			}(i)
		}
	}()
	next := 0
	maxLive := 0
	pending := make(map[int]bool, window)
	for next < n {
		i := <-done
		pending[i] = true
		if live := int(admitted.Load()) - next; live > maxLive {
			maxLive = live
		}
		for pending[next] {
			delete(pending, next)
			fold(next)
			next++
			<-admit
		}
	}
	return maxLive
}
