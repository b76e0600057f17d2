package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Quartiles must match Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 5, 7.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// The tail percentile is the highest one with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 1, false}, {19, 1, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true}, {1e6, 0.999, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 0.9 || !near(v, 90.1) {
		t.Errorf("tail of 1..100 = %v at p%v, want 90.1 at p90", v, p*100)
	}
	if v, p := tail([]float64{3, 9, 1}); p != 1 || v != 9 {
		t.Errorf("tail of three samples = %v at %v, want the maximum", v, p)
	}
}
