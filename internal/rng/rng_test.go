package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("seeds 1 and 2 collided on %d/100 outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestChildDeterminism(t *testing.T) {
	a := New(7).Child("overlay")
	b := New(7).Child("overlay")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-label children diverged")
		}
	}
}

func TestChildIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Child("a")
	b := parent.Child("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("children 'a' and 'b' collided on %d/100 outputs", same)
	}
}

func TestRepeatedChildDistinct(t *testing.T) {
	parent := New(9)
	a := parent.Child("x")
	b := parent.Child("x")
	// Successive derivations with the same label must not alias, because the
	// parent advances between calls.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("successive same-label children collided on %d/100 outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nCoversSmallRangeUniformly(t *testing.T) {
	r := New(11)
	const n = 8
	const draws = 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("value %d drawn %d times, want about %.0f", v, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("IntRange(4,4) = %d, want 4", got)
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want about 0.5", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(10)
	for i := 0; i < 1000; i++ {
		f := r.Float64Range(2.5, 7.5)
		if f < 2.5 || f >= 7.5 {
			t.Fatalf("Float64Range(2.5,7.5) = %v", f)
		}
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(12)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(14)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want about 1", variance)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(16)
	for _, mean := range []float64{0, 0.5, 3, 20, 100} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Poisson(mean)
			if v < 0 {
				t.Fatalf("Poisson(%v) returned negative %d", mean, v)
			}
			sum += float64(v)
		}
		got := sum / n
		tol := 0.05*mean + 0.05
		if math.Abs(got-mean) > tol {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonPanicsOnNegativeMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Poisson(-1) did not panic")
		}
	}()
	New(1).Poisson(-1)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(18)
	xs := []int{1, 2, 2, 3, 5, 8, 13}
	counts := map[int]int{}
	for _, v := range xs {
		counts[v]++
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		counts[v]--
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count changed by %d after Shuffle", v, c)
		}
	}
}

func TestSample(t *testing.T) {
	r := New(19)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample(10,4) returned %d elements", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("Sample(10,4) = %v has invalid or duplicate element", s)
		}
		seen[v] = true
	}
	if got := r.Sample(3, 3); len(got) != 3 {
		t.Fatalf("Sample(3,3) returned %d elements", len(got))
	}
	if got := r.Sample(3, 0); len(got) != 0 {
		t.Fatalf("Sample(3,0) returned %d elements", len(got))
	}
}

func TestSamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	New(1).Sample(2, 3)
}

func TestPick(t *testing.T) {
	r := New(20)
	xs := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[Pick(r, xs)]++
	}
	for _, k := range xs {
		if counts[k] < 800 {
			t.Fatalf("Pick heavily skewed: %v", counts)
		}
	}
}

// Property: Uint64n(n) < n for arbitrary n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(23)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identically seeded generators agree on arbitrary call interleavings
// of Intn and Float64 decided by the inputs.
func TestQuickStreamEquality(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		a, b := New(seed), New(seed)
		for _, op := range ops {
			if op {
				if a.Intn(1000) != b.Intn(1000) {
					return false
				}
			} else {
				if a.Float64() != b.Float64() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}
