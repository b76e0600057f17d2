package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones a
// Python-side check computes from the same values. A single value gives
// all three equal to it (NaN when empty).
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	at := func(i int) float64 {
		// Python's integer arithmetic, including its clamp of the lower
		// rank to [1, n-1] (which extrapolates for tiny samples).
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile picks the highest candidate percentile that has at
// least ten of n samples beyond it. ok is false when even the median has
// fewer than ten samples beyond it; callers then report the maximum.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		// Small epsilon: n*(1-p) is computed in floating point.
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 1, false
}

// tail returns the highest-percentile value of xs that has at least ten
// samples beyond it (the maximum when there are too few samples) and the
// percentile it chose.
func tail(xs []float64) (v, p float64) {
	p, _ = tailPercentile(len(xs))
	return quantile(xs, p), p
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(durationsMS(ds)) * float64(time.Millisecond))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
