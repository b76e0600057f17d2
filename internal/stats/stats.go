// Package stats provides the small statistics toolkit used across the
// simulator: streaming samplers with quantiles (for the Fig. 16a read
// queueing latency distribution), weighted speedup (Snavely-Tullsen, as
// in Fig. 12), and geometric means.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"eruca/internal/diag"
	"eruca/internal/rng"
)

// Sampler accumulates float64 samples and reports summary statistics.
// The zero value is ready to use and retains every sample (O(n) memory).
// Reservoir arms a bounded streaming mode that keeps a uniform random
// subset of fixed size for quantiles while the count and sum — hence N
// and Mean — stay exact.
type Sampler struct {
	vals   []float64
	sum    float64
	sorted bool

	n   int         // total samples observed (== len(vals) when unbounded)
	cap int         // reservoir capacity; 0 = retain everything
	rng *rand.Rand  // replacement PRNG (reservoir mode only)
	src *rng.Source // counting source behind rng, for checkpoint/restore
}

// Reservoir bounds the sampler to k retained samples using Vitter's
// Algorithm R with a deterministic PRNG: each observed sample has
// probability k/n of being retained, so nearest-rank quantiles over the
// retained set converge to the true quantiles with error O(1/sqrt(k)).
// The same seed always retains the same subset for the same input
// stream, keeping sweep tables byte-identical at any parallelism. Must
// be called before the first Add.
func (s *Sampler) Reservoir(k int, seed int64) {
	diag.Invariant(len(s.vals) == 0, "stats: Reservoir armed on a non-empty sampler (n=%d)", len(s.vals))
	diag.Invariant(k > 0, "stats: non-positive reservoir capacity %d", k)
	s.cap = k
	s.rng, s.src = rng.New(seed)
}

// Add records a sample.
func (s *Sampler) Add(v float64) {
	s.n++
	s.sum += v
	if s.cap > 0 && len(s.vals) >= s.cap {
		// Algorithm R: the new sample displaces a uniformly random
		// retained one with probability cap/n. The retained set stays an
		// exchangeable uniform subset even though Quantile sorts in place.
		if j := s.rng.Intn(s.n); j < s.cap {
			s.vals[j] = v
			s.sorted = false
		}
		return
	}
	s.vals = append(s.vals, v)
	s.sorted = false
}

// N reports the total number of samples observed (exact in both modes).
func (s *Sampler) N() int { return s.n }

// Retained reports how many samples are resident for quantile queries.
func (s *Sampler) Retained() int { return len(s.vals) }

// Mean reports the arithmetic mean over every observed sample (exact in
// both modes; 0 for an empty sampler).
func (s *Sampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Quantile reports the q-quantile (0 <= q <= 1) by nearest-rank on the
// sorted samples.
func (s *Sampler) Quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	idx := int(q*float64(len(s.vals)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.vals) {
		idx = len(s.vals) - 1
	}
	return s.vals[idx]
}

// Quartiles reports the 25th, 50th and 75th percentiles (the Fig. 16a
// box parameters).
func (s *Sampler) Quartiles() (q1, median, q3 float64) {
	return s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.75)
}

// Max reports the largest sample.
func (s *Sampler) Max() float64 { return s.Quantile(1) }

// Values exposes the raw samples (possibly reordered). Callers must not
// modify the returned slice.
func (s *Sampler) Values() []float64 { return s.vals }

// Merge adds every retained sample of other, scaled by the given factor
// — used to combine per-channel cycle samplers into one nanosecond
// distribution. When other is a bounded reservoir, the samples its
// reservoir dropped still contribute to the merged count and sum, so N
// and Mean stay exact end to end.
func (s *Sampler) Merge(other *Sampler, scale float64) {
	var retained float64
	for _, v := range other.vals {
		s.Add(v * scale)
		retained += v
	}
	if extra := other.n - len(other.vals); extra > 0 {
		s.n += extra
		s.sum += (other.sum - retained) * scale
	}
}

// String implements fmt.Stringer.
func (s *Sampler) String() string {
	q1, med, q3 := s.Quartiles()
	return fmt.Sprintf("n=%d mean=%.1f q1=%.1f med=%.1f q3=%.1f", s.N(), s.Mean(), q1, med, q3)
}

// WeightedSpeedup computes the Snavely-Tullsen weighted speedup of a
// multiprogrammed run: sum over cores of IPC_shared/IPC_alone. It panics
// on mismatched lengths and skips cores with zero alone-IPC.
func WeightedSpeedup(ipcShared, ipcAlone []float64) float64 {
	diag.Invariant(len(ipcShared) == len(ipcAlone),
		"stats: %d shared IPCs vs %d alone IPCs", len(ipcShared), len(ipcAlone))
	ws := 0.0
	for i := range ipcShared {
		if ipcAlone[i] > 0 {
			ws += ipcShared[i] / ipcAlone[i]
		}
	}
	return ws
}

// GeoMean reports the geometric mean of positive values; zero or
// negative entries are skipped.
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Ratio reports a/b, or 0 when b is 0 — a convenience for normalized
// metrics.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
