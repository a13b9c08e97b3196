package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Unbiased sample variance of the classic dataset is 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.min != 2 || s.max != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", s.min, s.max)
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatal("variance of one observation should be 0")
	}
	if s.min != 3.5 || s.max != 3.5 {
		t.Fatal("min/max wrong for single observation")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}

// Property: Welford mean/variance match the naive two-pass computation.
func TestQuickSummaryMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		var s Summary
		sum := 0.0
		for _, x := range xs {
			s.Add(x)
			sum += x
		}

		mean := sum / float64(len(xs))
		varSum := 0.0
		for _, x := range xs {
			varSum += (x - mean) * (x - mean)
		}
		naiveVar := varSum / float64(len(xs)-1)
		return almost(s.Mean(), mean, 1e-6*(1+math.Abs(mean))) &&
			almost(s.Variance(), naiveVar, 1e-6*(1+naiveVar))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func TestGini(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0, 0}, 0},
		{[]float64{5, 5, 5, 5}, 0},      // perfect equality
		{[]float64{0, 0, 0, 10}, 0.75},  // one holder of all mass
		{[]float64{-3, 0, 0, 10}, 0.75}, // negatives clamp to zero
		{[]float64{1, 2, 3, 4}, 0.25},   // classic example
	}
	for _, c := range cases {
		if got := Gini(c.in); !almost(got, c.want, 1e-9) {
			t.Errorf("Gini(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property: Gini is scale-invariant and bounded in [0, 1).
func TestQuickGiniBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		scaled := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			scaled[i] = float64(v) * 7.5
		}
		g := Gini(xs)
		if g < 0 || g >= 1 {
			return false
		}
		return almost(g, Gini(scaled), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
