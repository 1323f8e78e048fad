package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer during a replayed round. Offsets are
// from the round's start; parent is the index of the enclosing span, -1 for
// a top-level span.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps one round's spans in memory. Spans opened with begin nest on
// the replaying goroutine; record adds a finished span from any goroutine
// (the device fleet's warmers call the snapshot store concurrently) under
// whatever span the replaying goroutine has open.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span on the replaying goroutine and returns its id for end.
func (t *tracer) begin(name string) int {
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: t.top(), start: start})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// record adds a span that started at start and ends now.
func (t *tracer) record(name string, start time.Time) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: t.top(), start: start.Sub(t.t0), end: now})
	t.mu.Unlock()
}

// layerTimes is the per-name aggregate of one round's spans.
type layerTimes struct {
	total map[string]time.Duration // inclusive span time
	self  map[string]time.Duration // minus the time children cover
	count map[string]int
	top   time.Duration // sum of top-level spans
}

// aggregate folds the spans into per-name totals and self times.
func (t *tracer) aggregate() layerTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	lt := layerTimes{
		total: make(map[string]time.Duration),
		self:  make(map[string]time.Duration),
		count: make(map[string]int),
	}
	self := selfTimes(spans)
	for i, s := range spans {
		lt.total[s.name] += s.end - s.start
		lt.self[s.name] += self[i]
		lt.count[s.name]++
		if s.parent < 0 {
			lt.top += s.end - s.start
		}
	}
	return lt
}

// selfTimes returns each span's duration minus the part of its interval its
// children cover. Children may overlap each other (concurrent snapshot
// store calls), so the covered part is the union of their intervals clipped
// to the parent's.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := spans[c].start, spans[c].end
			if a < s.start {
				a = s.start
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		for k, v := range ivs {
			if k == 0 || v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		out[i] = s.end - s.start - covered
	}
	return out
}
