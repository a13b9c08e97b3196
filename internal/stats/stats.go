// Package stats provides the small descriptive-statistics toolkit used by
// the trace analyses and experiment harnesses: running summaries and the
// Gini coefficient.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming descriptive statistics using Welford's
// algorithm, so it is numerically stable for long runs. The zero value is
// an empty summary ready for Add.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// String renders the summary compactly for experiment logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Gini returns the Gini coefficient of the non-negative values in xs —
// 0 for perfectly equal values, approaching 1 when a few values hold all
// the mass. The reputation-distribution figures use it to quantify how
// skewed the system's trust is (the paper's Figure 5(a) notes the skew
// toward pretrusted nodes and colluders). Negative values are treated as
// zero; empty or all-zero input yields 0.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			sorted[i] = x
		}
	}
	sort.Float64s(sorted)
	total := 0.0
	weighted := 0.0
	for i, x := range sorted {
		total += x
		weighted += float64(i+1) * x
	}
	if total == 0 {
		return 0
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*total) / (n * total)
}
