package reputation

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/rng"
)

func TestLedgerCounts(t *testing.T) {
	l := NewLedger(4)
	l.Record(1, 0, 1)
	l.Record(1, 0, 1)
	l.Record(2, 0, -1)
	l.Record(3, 0, 0)
	l.Record(0, 1, 1)

	if got := l.TotalFor(0); got != 4 {
		t.Fatalf("TotalFor(0) = %d, want 4", got)
	}
	if got := l.PositiveFor(0); got != 2 {
		t.Fatalf("PositiveFor(0) = %d, want 2", got)
	}
	if got := l.PositiveFor(0) - l.SummationScore(0); got != 1 {
		t.Fatalf("N-_0 = %d, want 1", got)
	}
	if got := l.PairTotal(0, 1); got != 2 {
		t.Fatalf("PairTotal(0,1) = %d, want 2", got)
	}
	if got := l.PairPositive(0, 1); got != 2 {
		t.Fatalf("PairPositive(0,1) = %d, want 2", got)
	}
	// Raters of node 0 ascend: 1, 2, 3.
	pc := l.PairCountsOf(0)
	if pc.Neg[0] != 0 || pc.Neg[1] != 1 || pc.Neg[2] != 0 {
		t.Fatalf("PairCountsOf(0).Neg = %v, want [0 1 0]", pc.Neg)
	}
	// Local trust, positive minus negative ratings of one rater.
	if got := pc.Pos[0] - pc.Neg[0]; got != 2 {
		t.Fatalf("local trust of 1 in 0 = %d, want 2", got)
	}
	if got := pc.Pos[1] - pc.Neg[1]; got != -1 {
		t.Fatalf("local trust of 2 in 0 = %d, want -1", got)
	}
	if got := l.OthersTotal(0, 1); got != 2 {
		t.Fatalf("OthersTotal(0,1) = %d, want 2", got)
	}
	if got := l.OthersPositive(0, 1); got != 0 {
		t.Fatalf("OthersPositive(0,1) = %d, want 0", got)
	}
	if got := l.SummationScore(0); got != 1 {
		t.Fatalf("SummationScore(0) = %d, want 1 (2 pos - 1 neg)", got)
	}
	if got := l.OutgoingTotal(1); got != 2 {
		t.Fatalf("OutgoingTotal(1) = %d, want 2", got)
	}
	if got := l.OutgoingTotal(0); got != 1 {
		t.Fatalf("OutgoingTotal(0) = %d, want 1", got)
	}
}

func TestLedgerPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"size zero", func() { NewLedger(0) }},
		{"rater out of range", func() { NewLedger(2).Record(5, 0, 1) }},
		{"target out of range", func() { NewLedger(2).Record(0, 5, 1) }},
		{"self rating", func() { NewLedger(2).Record(1, 1, 1) }},
		{"bad polarity", func() { NewLedger(2).Record(0, 1, 2) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestLedgerReset(t *testing.T) {
	l := NewLedger(3)
	l.Record(0, 1, 1)
	l.Record(2, 1, -1)
	l.Reset()
	if l.TotalFor(1) != 0 || l.SummationScore(1) != 0 || l.PairTotal(1, 0) != 0 {
		t.Fatal("Reset did not clear counts")
	}
}

func TestLedgerCloneIndependent(t *testing.T) {
	l := NewLedger(3)
	l.Record(0, 1, 1)
	c := NewLedger(3)
	l.CloneInto(c)
	c.Record(2, 1, 1)
	if l.TotalFor(1) != 1 {
		t.Fatal("clone mutation affected original")
	}
	if c.TotalFor(1) != 2 {
		t.Fatal("clone missing recorded rating")
	}
}

func TestLedgerMerge(t *testing.T) {
	a := NewLedger(3)
	a.Record(0, 1, 1)
	b := NewLedger(3)
	b.Record(0, 1, -1)
	b.Record(2, 1, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.TotalFor(1) != 3 || a.SummationScore(1) != 1 {
		t.Fatalf("merged totals wrong: total=%d score=%d", a.TotalFor(1), a.SummationScore(1))
	}
	if err := a.Merge(NewLedger(5)); err == nil {
		t.Fatal("size-mismatched merge accepted")
	}
}

// Property: per-pair counts always reconcile with per-node receive totals.
func TestQuickLedgerReconciles(t *testing.T) {
	f := func(events []uint16) bool {
		const n = 8
		l := NewLedger(n)
		for _, e := range events {
			rater := int(e) % n
			target := int(e>>3) % n
			if rater == target {
				continue
			}
			polarity := int(e>>6)%3 - 1
			l.Record(rater, target, polarity)
		}
		for target := 0; target < n; target++ {
			sumTotal, sumPos, sumNeg := 0, 0, 0
			for rater := 0; rater < n; rater++ {
				sumTotal += l.PairTotal(target, rater)
				sumPos += l.PairPositive(target, rater)
			}
			for _, neg := range l.PairCountsOf(target).Neg {
				sumNeg += int(neg)
			}
			if sumTotal != l.TotalFor(target) ||
				sumPos != l.PositiveFor(target) ||
				l.SummationScore(target) != sumPos-sumNeg {
				return false
			}
		}
		for rater := 0; rater < n; rater++ {
			sent := 0
			for target := 0; target < n; target++ {
				sent += l.PairTotal(target, rater)
			}
			if sent != l.OutgoingTotal(rater) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummationEngine(t *testing.T) {
	l := NewLedger(3)
	l.Record(1, 0, 1)
	l.Record(2, 0, 1)
	l.Record(1, 2, -1)
	scores := Summation{}.Scores(l)
	want := []float64{2, 0, -1}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("Scores = %v, want %v", scores, want)
		}
	}
	if (Summation{}).Name() == "" {
		t.Fatal("empty engine name")
	}
}

func TestWeightedSumEngine(t *testing.T) {
	l := NewLedger(4)
	// Node 0 is pretrusted. It rates node 2 positively twice; node 1 rates
	// node 2 positively once and node 3 negatively once.
	l.Record(0, 2, 1)
	l.Record(0, 2, 1)
	l.Record(1, 2, 1)
	l.Record(1, 3, -1)
	e := NewWeightedSum([]int{0})
	scores := e.Scores(l)
	if want := 0.5*2 + 0.2*1; math.Abs(scores[2]-want) > 1e-12 {
		t.Fatalf("score[2] = %v, want %v", scores[2], want)
	}
	if want := -0.2; math.Abs(scores[3]-want) > 1e-12 {
		t.Fatalf("score[3] = %v, want %v", scores[3], want)
	}
	if scores[0] != 0 || scores[1] != 0 {
		t.Fatalf("unrated nodes scored: %v", scores)
	}
}

func TestWeightedSumIgnoresInvalidPretrusted(t *testing.T) {
	l := NewLedger(2)
	l.Record(0, 1, 1)
	e := NewWeightedSum([]int{-1, 99})
	scores := e.Scores(l)
	if want := 0.2; math.Abs(scores[1]-want) > 1e-12 {
		t.Fatalf("score[1] = %v, want %v", scores[1], want)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 0, -3, 6})
	if math.Abs(out[0]-0.25) > 1e-12 || out[1] != 0 || out[2] != 0 || math.Abs(out[3]-0.75) > 1e-12 {
		t.Fatalf("Normalize = %v", out)
	}
	zero := Normalize([]float64{-1, 0})
	if zero[0] != -1 || zero[1] != 0 {
		t.Fatalf("Normalize of non-positive input = %v, want unchanged copy", zero)
	}
}

// TestValidateEngine checks that every engine returns one finite score
// per node.
func TestValidateEngine(t *testing.T) {
	l := NewLedger(3)
	l.Record(0, 1, 1)
	for _, e := range []Engine{Summation{}, NewWeightedSum([]int{0}), NewEigenTrust([]int{0})} {
		scores := e.Scores(l)
		if len(scores) != l.Size() {
			t.Errorf("engine %q returned %d scores for %d nodes", e.Name(), len(scores), l.Size())
		}
		for i, s := range scores {
			if math.IsNaN(s) || s > 1e18 || s < -1e18 {
				t.Errorf("engine %q scored node %d %v", e.Name(), i, s)
			}
		}
	}
}

func TestEigenTrustDistribution(t *testing.T) {
	l := NewLedger(10)
	r := rng.New(1)
	for k := 0; k < 500; k++ {
		i, j := r.Intn(10), r.Intn(10)
		if i == j {
			continue
		}
		pol := 1
		if r.Bool(0.3) {
			pol = -1
		}
		l.Record(i, j, pol)
	}
	e := NewEigenTrust([]int{0, 1})
	scores := e.Scores(l)
	if err := CheckDistribution(scores, 1e-6); err != nil {
		t.Fatal(err)
	}
	if e.Iterations() == 0 {
		t.Fatal("no iterations recorded")
	}
}

func TestEigenTrustFixedPoint(t *testing.T) {
	l := NewLedger(6)
	r := rng.New(2)
	for k := 0; k < 300; k++ {
		i, j := r.Intn(6), r.Intn(6)
		if i == j {
			continue
		}
		pol := 1
		if r.Bool(0.2) {
			pol = -1
		}
		l.Record(i, j, pol)
	}
	e := NewEigenTrust([]int{0})
	t1 := e.Scores(l)
	// Running again from the same ledger must be deterministic.
	t2 := e.Scores(l)
	for i := range t1 {
		if math.Abs(t1[i]-t2[i]) > 1e-12 {
			t.Fatalf("non-deterministic scores at %d: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestEigenTrustPretrustedFloor(t *testing.T) {
	// Even with zero ratings, pretrusted peers hold at least alpha * p mass.
	l := NewLedger(8)
	e := NewEigenTrust([]int{2})
	e.Alpha = 0.2
	scores := e.Scores(l)
	if scores[2] < 0.2*1.0-1e-9 {
		t.Fatalf("pretrusted mass = %v, want >= alpha", scores[2])
	}
	if err := CheckDistribution(scores, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestEigenTrustNoPretrustedUniformFallback(t *testing.T) {
	l := NewLedger(4)
	e := NewEigenTrust(nil)
	scores := e.Scores(l)
	for i, s := range scores {
		if math.Abs(s-0.25) > 1e-9 {
			t.Fatalf("score[%d] = %v, want uniform 0.25", i, s)
		}
	}
}

// The collusion vulnerability the paper exploits: two nodes that flood each
// other with positive ratings gain global trust relative to an identical
// node without a partner.
func TestEigenTrustColluderBoost(t *testing.T) {
	const n = 12
	l := NewLedger(n)
	r := rng.New(3)
	// Organic traffic: everyone behaves equally well, so all nodes —
	// including the colluders — receive comparable external trust. The
	// collusion boost then comes purely from the mutual flooding, as in the
	// paper's B=0.6 scenario (colluders still serve well enough to earn
	// organic positives).
	for k := 0; k < 2000; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		l.Record(i, j, 1)
	}
	// Colluders 1 and 2 rate each other massively.
	for k := 0; k < 200; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	e := NewEigenTrust([]int{0})
	scores := e.Scores(l)
	// Node 3 is an ordinary node with organic incoming trust only.
	if scores[1] <= scores[3] || scores[2] <= scores[3] {
		t.Fatalf("collusion did not boost trust: colluders %v/%v vs normal %v",
			scores[1], scores[2], scores[3])
	}
}

func TestEigenTrustCostAccounting(t *testing.T) {
	var meter metrics.CostMeter
	l := NewLedger(5)
	l.Record(0, 1, 1)
	e := NewEigenTrust([]int{0})
	e.Meter = &meter
	e.Scores(l)
	got := meter.Get(metrics.CostEigenMulAdd)
	want := int64(e.Iterations()) * 25
	if got != want {
		t.Fatalf("cost = %d, want %d (iterations × n²)", got, want)
	}
}

func TestEigenTrustMaxIterRespected(t *testing.T) {
	l := NewLedger(5)
	l.Record(0, 1, 1)
	e := NewEigenTrust([]int{0})
	e.MaxIter = 3
	e.Epsilon = 1e-300 // never converge by tolerance
	e.Scores(l)
	if e.Iterations() != 3 {
		t.Fatalf("iterations = %d, want 3", e.Iterations())
	}
}

// Property: EigenTrust scores are a probability distribution for arbitrary
// rating patterns.
func TestQuickEigenTrustDistribution(t *testing.T) {
	f := func(events []uint16, pretrust uint8) bool {
		const n = 7
		l := NewLedger(n)
		for _, e := range events {
			i := int(e) % n
			j := int(e>>3) % n
			if i == j {
				continue
			}
			pol := int(e>>6)%3 - 1
			l.Record(i, j, pol)
		}
		e := NewEigenTrust([]int{int(pretrust) % n})
		return CheckDistribution(e.Scores(l), 1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// CheckDistribution verifies that scores form a probability distribution
// within tolerance; the EigenTrust property tests use it.
func CheckDistribution(scores []float64, tol float64) error {
	sum := 0.0
	for i, s := range scores {
		if s < -tol {
			return fmt.Errorf("reputation: score %d is negative: %v", i, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("reputation: scores sum to %v, want 1", sum)
	}
	return nil
}

func TestCheckDistribution(t *testing.T) {
	if err := CheckDistribution([]float64{0.5, 0.5}, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := CheckDistribution([]float64{0.5, 0.4}, 1e-9); err == nil {
		t.Fatal("sum 0.9 accepted")
	}
	if err := CheckDistribution([]float64{1.5, -0.5}, 1e-9); err == nil {
		t.Fatal("negative mass accepted")
	}
}

func benchLedger(n int) *Ledger {
	l := NewLedger(n)
	r := rng.New(1)
	for k := 0; k < n*50; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		pol := 1
		if r.Bool(0.2) {
			pol = -1
		}
		l.Record(i, j, pol)
	}
	return l
}

func BenchmarkEigenTrust200(b *testing.B) {
	l := benchLedger(200)
	e := NewEigenTrust([]int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}

func BenchmarkWeightedSum200(b *testing.B) {
	l := benchLedger(200)
	e := NewWeightedSum([]int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}

func BenchmarkLedgerRecord(b *testing.B) {
	l := NewLedger(200)
	for i := 0; i < b.N; i++ {
		l.Record(i%199, 199, 1)
	}
}
