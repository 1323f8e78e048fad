package main

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "explore", parent: -1, start: 0, end: 10 * ms},
		{name: "load", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "load", parent: 0, start: 2 * ms, end: 5 * ms},  // overlaps the first: concurrent warmers
		{name: "save", parent: 0, start: 8 * ms, end: 12 * ms}, // ends after its parent: clipped
		{name: "decode", parent: 2, start: 3 * ms, end: 4 * ms},
		{name: "fold", parent: -1, start: 10 * ms, end: 11 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{4 * ms, 2 * ms, 2 * ms, 4 * ms, 1 * ms, 1 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNestsSpansAndAggregates(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("explorer.explore")
	inner := tr.begin("artifact.load")
	tr.end(inner)
	tr.record("artifact.snapshot_load", time.Now())
	tr.end(outer)
	fold := tr.begin("report.fold")
	tr.end(fold)

	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.name] = s.parent
	}
	if parents["explorer.explore"] != -1 || parents["report.fold"] != -1 {
		t.Errorf("top-level spans got parents %v", parents)
	}
	if parents["artifact.load"] != outer || parents["artifact.snapshot_load"] != outer {
		t.Errorf("nested spans got parents %v, want %d", parents, outer)
	}
	lt := tr.aggregate()
	if lt.count["explorer.explore"] != 1 || lt.count["artifact.snapshot_load"] != 1 {
		t.Errorf("counts %v", lt.count)
	}
	if want := lt.total["explorer.explore"] + lt.total["report.fold"]; lt.top != want {
		t.Errorf("top-level time %v, want %v", lt.top, want)
	}
	if lt.self["explorer.explore"] > lt.total["explorer.explore"] {
		t.Errorf("self time %v exceeds total %v", lt.self["explorer.explore"], lt.total["explorer.explore"])
	}
}
