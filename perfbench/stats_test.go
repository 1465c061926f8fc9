package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} }
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1},
	} {
		if got := percentile(ten(), c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("percentile of one sample = %v, want 4", got)
	}
	// p99 of 1000 samples is the 990th smallest: ten samples lie beyond it.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %v, want the lower middle 2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "admit", start: 10, end: 30, parent: 0},
		{name: "wait", start: 20, end: 60, parent: 0},    // overlaps admit: counted once
		{name: "late", start: 90, end: 130, parent: 0},   // clipped to the parent
		{name: "inner", start: 25, end: 35, parent: 2},   // child of wait
		{name: "other", start: 0, end: 50, parent: -1},   // a root without children
		{name: "edge", start: 100, end: 100, parent: -1}, // empty
	}
	want := []int64{100 - 50 - 10, 20, 40 - 10, 40, 10, 50, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}
