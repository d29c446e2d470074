package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("even sample median: %v", got)
	}
}

func TestMetricValue(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	if got := (metricSpec{}).value(v); got != 3 {
		t.Errorf("default aggregate is the median, got %v", got)
	}
	if got := (metricSpec{agg: p95}).value(v); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if got := (metricSpec{}).value(nil); got != 0 {
		t.Errorf("no samples must read 0, got %v", got)
	}
	if v[0] != 5 {
		t.Error("value sorted its argument in place")
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := lower.worseBy(10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: %v", got)
	}
	if got := higher.worseBy(10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11: %v", got)
	}
	if got := higher.worseBy(10, 8); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 8: %v", got)
	}
}
