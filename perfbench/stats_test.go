package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileReportsItsSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true},  // ten samples above rank 90
		{99, 90, 90, false},  // rank 90 of 99 leaves nine above it
		{200, 90, 180, true}, // nearest rank, not interpolated
		{20, 50, 10, true},
		{5, 50, 3, false},
	} {
		xs := seq(tc.n)
		v, n, ok := percentile(xs, tc.p)
		if v != tc.want || n != tc.n || ok != tc.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %d, %v; want %v, %d, %v", tc.n, tc.p, v, n, ok, tc.want, tc.n, tc.wantOK)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if _, n, ok := percentile(nil, 90); n != 0 || ok {
		t.Errorf("percentile(nil) = n %d ok %v, want 0 false", n, ok)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestQuietDropsStolenRoundsButKeepsSome(t *testing.T) {
	runs := []cliRun{{steal: 0}, {steal: 12}, {steal: 4.9}, {steal: 30}, {steal: 5}, {steal: 7}, {steal: 9}, {steal: 8}}
	if got := quiet(runs, 3); len(got) != 3 || got[0].steal != 0 || got[1].steal != 4.9 || got[2].steal != 5 {
		t.Errorf("quiet(runs, 3) = %v, want the three runs with at most %d%% steal", got, quietStealPct)
	}
	// Too few quiet runs: the least-stolen ones stand in, at least keep.
	if got := quiet(runs, 4); len(got) != 4 || got[3].steal != 7 {
		t.Errorf("quiet(runs, 4) = %v, want the four least-stolen runs", got)
	}
	// ... or a quarter of all runs, when that is more.
	many := append(append(append([]cliRun(nil), runs...), runs...), runs...) // 24 runs, 9 quiet
	if got := quiet(many, 10); len(got) != 10 {
		t.Errorf("quiet(24 runs, 10) kept %d, want 10", len(got))
	}
	if got := quiet(many[:20], 8); len(got) != 8 {
		t.Errorf("quiet(20 runs with 8 quiet, 8) kept %d, want the 8 quiet ones", len(got))
	}
	var stormy []cliRun
	for i := 0; i < 24; i++ {
		stormy = append(stormy, cliRun{steal: float64(33 - i)})
	}
	if got := quiet(stormy, 3); len(got) != 6 || got[0].steal != 10 || got[5].steal != 15 {
		t.Errorf("quiet(24 stolen runs, 3) = %v, want the six least-stolen", got)
	}
	if got := quiet(runs[:2], 5); len(got) != 2 {
		t.Errorf("quiet of 2 runs keeping 5 = %v, want both", got)
	}
	if runs[1].steal != 12 {
		t.Errorf("quiet reordered its input")
	}
}
