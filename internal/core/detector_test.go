package core

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

func TestDefaultThresholdsValid(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdsValidate(t *testing.T) {
	bad := []Thresholds{
		{TN: 0, Ta: 0.8, Tb: 0.2},
		{TN: 5, Ta: 1.5, Tb: 0.2},
		{TN: 5, Ta: 0.8, Tb: -0.1},
		{TN: 5, Ta: 0.2, Tb: 0.8}, // Ta <= Tb
	}
	for i, th := range bad {
		if err := th.Validate(); err == nil {
			t.Errorf("bad thresholds %d accepted: %+v", i, th)
		}
	}
}

// FormulaReputation evaluates Formula (1): the summation reputation of a
// node that received ni ratings in total, nij of them from one rater whose
// positive share is a, while the positive share of the other ni-nij
// ratings is b. The identity holds exactly when every rating is ±1.
func FormulaReputation(ni, nij int, a, b float64) float64 {
	return 2*b*float64(ni-nij) + 2*a*float64(nij) - float64(ni)
}

func TestFormulaReputationIdentity(t *testing.T) {
	// Hand check: ni=100, nij=40 from the rater with a=1.0; others 60
	// ratings with b=0.1 → R = 2*0.1*60 + 2*1*40 - 100 = 12 - 20 = -8...
	// compute: 12 + 80 - 100 = -8.
	if got := FormulaReputation(100, 40, 1.0, 0.1); math.Abs(got-(-8)) > 1e-12 {
		t.Fatalf("FormulaReputation = %v, want -8", got)
	}
}

// Property: Formula (1) is an identity for ±1 ledgers — the summation
// reputation equals 2b(N_i−N_(i,j)) + 2a·N_(i,j) − N_i for every rater j
// with nonzero counts.
func TestQuickFormulaOneIdentity(t *testing.T) {
	f := func(events []uint16) bool {
		const n = 6
		l := reputation.NewLedger(n)
		for _, e := range events {
			i := int(e) % n
			j := int(e>>3) % n
			if i == j {
				continue
			}
			pol := 1
			if e>>6&1 == 1 {
				pol = -1
			}
			l.Record(i, j, pol)
		}
		for target := 0; target < n; target++ {
			ni := l.TotalFor(target)
			if ni == 0 {
				continue
			}
			r := float64(l.SummationScore(target))
			for rater := 0; rater < n; rater++ {
				if rater == target {
					continue
				}
				nij := l.PairTotal(target, rater)
				if nij == 0 || nij == ni {
					continue // a or b undefined
				}
				a := float64(l.PairPositive(target, rater)) / float64(nij)
				b := float64(l.OthersPositive(target, rater)) / float64(l.OthersTotal(target, rater))
				if math.Abs(FormulaReputation(ni, nij, a, b)-r) > 1e-6 {
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

func TestReputationBounds(t *testing.T) {
	th := Thresholds{TR: 1, TN: 20, Ta: 0.8, Tb: 0.2}
	lo, hi := th.ReputationBounds(100, 40)
	// lo = 2*0.8*40 - 100 = -36; hi = 2*0.2*60 + 80 - 100 = 4.
	if math.Abs(lo-(-36)) > 1e-12 || math.Abs(hi-4) > 1e-12 {
		t.Fatalf("bounds = [%v, %v], want [-36, 4]", lo, hi)
	}
	if !th.BoundsHold(0, 100, 40) || th.BoundsHold(10, 100, 40) || th.BoundsHold(-40, 100, 40) {
		t.Fatal("BoundsHold misclassified")
	}
}

// Property: Formula (2) soundness — whenever a >= Ta and b <= Tb on a ±1
// ledger, the reputation lies inside the bounds.
func TestQuickFormulaTwoSoundness(t *testing.T) {
	th := Thresholds{TR: 1, TN: 1, Ta: 0.8, Tb: 0.2}
	f := func(naPos, naNeg, nbPos, nbNeg uint8) bool {
		// Rater contributes naPos positives + naNeg negatives; the rest of
		// the world nbPos + nbNeg. Enforce the share conditions by
		// construction, then check the bounds.
		nij := int(naPos) + int(naNeg)
		rest := int(nbPos) + int(nbNeg)
		if nij == 0 {
			return true
		}
		a := float64(naPos) / float64(nij)
		b := 0.0
		if rest > 0 {
			b = float64(nbPos) / float64(rest)
		}
		if a < th.Ta || b > th.Tb {
			return true // premise not met
		}
		ni := nij + rest
		r := float64(int(naPos) - int(naNeg) + int(nbPos) - int(nbNeg))
		return th.BoundsHold(r, ni, nij)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// buildCollusionLedger constructs the canonical scenario: a population
// where pair (1,2) colludes (frequent mutual positives, negative from the
// rest) and node 3 is honestly popular.
func buildCollusionLedger(t *testing.T) *reputation.Ledger {
	t.Helper()
	const n = 12
	l := reputation.NewLedger(n)
	// Colluders 1 and 2: 30 mutual positives each direction.
	for k := 0; k < 30; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	// The rest of the network rates the colluders mostly negatively (C2)
	// but not enough to sink their total reputation below TR (C1).
	for k := 0; k < 10; k++ {
		l.Record(4+k%6, 1, -1)
		l.Record(4+k%6, 2, -1)
	}
	// Node 3 is honestly high-reputed: many positives from many raters.
	for k := 0; k < 40; k++ {
		l.Record(4+k%8, 3, 1)
	}
	// Node 4 rates node 3 frequently and positively, but node 3's other
	// ratings are also positive, so b is high and no collusion exists.
	for k := 0; k < 25; k++ {
		l.Record(4, 3, 1)
	}
	return l
}

func TestBasicDetectsPlantedPair(t *testing.T) {
	l := buildCollusionLedger(t)
	d := NewBasic(DefaultThresholds())
	res := d.Detect(l)
	if len(res.Pairs) != 1 || !res.HasPair(1, 2) {
		t.Fatalf("detected pairs = %+v, want exactly {1,2}", res.Pairs)
	}
	e := res.Pairs[0]
	if e.NIJ != 30 || e.NJI != 30 || e.AIJ != 1 || e.AJI != 1 {
		t.Fatalf("evidence = %+v", e)
	}
	if res.Flagged[3] || res.Flagged[4] {
		t.Fatal("honest nodes flagged")
	}
	nodes := res.FlaggedNodes()
	if len(nodes) != 2 || nodes[0] != 1 || nodes[1] != 2 {
		t.Fatalf("FlaggedNodes = %v", nodes)
	}
}

func TestOptimizedDetectsPlantedPair(t *testing.T) {
	l := buildCollusionLedger(t)
	d := NewOptimized(DefaultThresholds())
	res := d.Detect(l)
	if len(res.Pairs) != 1 || !res.HasPair(1, 2) {
		t.Fatalf("detected pairs = %+v, want exactly {1,2}", res.Pairs)
	}
}

func TestDetectorsAgreeOnPlantedScenario(t *testing.T) {
	l := buildCollusionLedger(t)
	rb := NewBasic(DefaultThresholds()).Detect(l)
	ro := NewOptimized(DefaultThresholds()).Detect(l)
	if len(rb.Pairs) != len(ro.Pairs) {
		t.Fatalf("basic found %d pairs, optimized %d", len(rb.Pairs), len(ro.Pairs))
	}
	for i := range rb.Pairs {
		if rb.Pairs[i].I != ro.Pairs[i].I || rb.Pairs[i].J != ro.Pairs[i].J {
			t.Fatalf("pair %d differs: %+v vs %+v", i, rb.Pairs[i], ro.Pairs[i])
		}
	}
}

func TestNoDetectionBelowFrequencyThreshold(t *testing.T) {
	const n = 6
	l := reputation.NewLedger(n)
	// Mutual positives but below TN.
	for k := 0; k < 10; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	for k := 0; k < 4; k++ {
		l.Record(3+k%3, 1, -1)
		l.Record(3+k%3, 2, -1)
	}
	th := DefaultThresholds() // TN = 20
	if res := NewBasic(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged below-threshold pair: %+v", res.Pairs)
	}
	if res := NewOptimized(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged below-threshold pair: %+v", res.Pairs)
	}
}

func TestNoDetectionWhenOthersArePositive(t *testing.T) {
	// Two genuinely popular nodes that also rate each other a lot: the
	// outside world is positive about them (b high), so no collusion.
	const n = 10
	l := reputation.NewLedger(n)
	for k := 0; k < 30; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	for k := 0; k < 30; k++ {
		l.Record(3+k%7, 1, 1)
		l.Record(3+k%7, 2, 1)
	}
	th := DefaultThresholds()
	if res := NewBasic(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged popular friends: %+v", res.Pairs)
	}
	if res := NewOptimized(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged popular friends: %+v", res.Pairs)
	}
}

func TestOneSidedFloodingNotFlagged(t *testing.T) {
	// Node 2 floods node 1 with positives, but node 1 never rates back:
	// the symmetric condition fails (collusion is mutual by definition).
	const n = 8
	l := reputation.NewLedger(n)
	for k := 0; k < 40; k++ {
		l.Record(2, 1, 1)
	}
	for k := 0; k < 5; k++ {
		l.Record(3+k%5, 1, -1)
	}
	// Keep node 2 high-reputed via organic positives.
	for k := 0; k < 30; k++ {
		l.Record(3+k%5, 2, 1)
	}
	th := DefaultThresholds()
	if res := NewBasic(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged one-sided flooding: %+v", res.Pairs)
	}
	if res := NewOptimized(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged one-sided flooding: %+v", res.Pairs)
	}
}

func TestLowReputedColludersSkipped(t *testing.T) {
	// Colluders whose reputation stays below TR are outside the search
	// space (the paper only examines high-reputed nodes, C1).
	const n = 8
	l := reputation.NewLedger(n)
	for k := 0; k < 25; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	// Enough negatives to push their summation reputation below zero.
	for k := 0; k < 30; k++ {
		l.Record(3+k%5, 1, -1)
		l.Record(3+k%5, 2, -1)
	}
	th := DefaultThresholds() // TR = 1
	if res := NewBasic(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic examined low-reputed nodes: %+v", res.Pairs)
	}
	if res := NewOptimized(th).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized examined low-reputed nodes: %+v", res.Pairs)
	}
}

func TestDetectAmongRestrictsSearch(t *testing.T) {
	l := buildCollusionLedger(t)
	// Exclude node 2 from the candidate set: the pair cannot be flagged.
	cands := []int{1, 3}
	if res := NewBasic(DefaultThresholds()).DetectAmong(l, cands); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged pair outside candidates: %+v", res.Pairs)
	}
	if res := NewOptimized(DefaultThresholds()).DetectAmong(l, cands); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged pair outside candidates: %+v", res.Pairs)
	}
	// Out-of-range candidates must be ignored, not crash.
	if res := NewOptimized(DefaultThresholds()).DetectAmong(l, []int{-5, 9999, 1, 2}); !res.HasPair(1, 2) {
		t.Fatal("valid candidates lost among invalid ones")
	}
}

func TestMultiplePairsDetected(t *testing.T) {
	const n = 16
	l := reputation.NewLedger(n)
	plant := func(a, b int) {
		for k := 0; k < 25; k++ {
			l.Record(a, b, 1)
			l.Record(b, a, 1)
		}
		for k := 0; k < 8; k++ {
			l.Record(10+k%4, a, -1)
			l.Record(10+k%4, b, -1)
		}
	}
	plant(1, 2)
	plant(3, 4)
	plant(5, 6)
	for _, d := range []Detector{NewBasic(DefaultThresholds()), NewOptimized(DefaultThresholds())} {
		res := d.Detect(l)
		if len(res.Pairs) != 3 {
			t.Fatalf("%s found %d pairs, want 3: %+v", d.Name(), len(res.Pairs), res.Pairs)
		}
		for _, want := range [][2]int{{1, 2}, {3, 4}, {5, 6}} {
			if !res.HasPair(want[0], want[1]) {
				t.Fatalf("%s missed pair %v", d.Name(), want)
			}
		}
	}
}

// Property: on ±1 ledgers, every pair the basic method flags is also
// flagged by the optimized method (Formula (2) is a sound relaxation).
func TestQuickBasicSubsetOfOptimized(t *testing.T) {
	th := Thresholds{TR: 1, TN: 4, Ta: 0.8, Tb: 0.2}
	f := func(events []uint16, boost uint8) bool {
		const n = 8
		l := reputation.NewLedger(n)
		for _, e := range events {
			i := int(e) % n
			j := int(e>>3) % n
			if i == j {
				continue
			}
			pol := 1
			if e>>6&1 == 1 {
				pol = -1
			}
			l.Record(i, j, pol)
		}
		// Seed some mutual flooding so detections actually occur.
		for k := 0; k < int(boost)%40; k++ {
			l.Record(0, 1, 1)
			l.Record(1, 0, 1)
		}
		rb := NewBasic(th).Detect(l)
		ro := NewOptimized(th).Detect(l)
		for _, e := range rb.Pairs {
			if !ro.HasPair(e.I, e.J) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCostAsymmetry(t *testing.T) {
	// The basic detector's measured work must exceed the optimized
	// detector's by roughly a factor of n on the same workload.
	// Every node has several frequent, positive raters, so the basic
	// detector's row re-scan fires throughout the matrix — the O(mn²)
	// regime of Proposition 4.1 — while the optimized detector replaces
	// each re-scan with a constant-cost bound evaluation.
	const n = 64
	l := reputation.NewLedger(n)
	r := rng.New(7)
	for i := 0; i < n; i++ {
		for f := 1; f <= 8; f++ {
			rater := (i + f) % n
			for k := 0; k < 25; k++ {
				l.Record(rater, i, 1)
			}
		}
	}
	for k := 0; k < n*10; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		l.Record(i, j, 1)
	}

	var mb, mo metrics.CostMeter
	b := NewBasic(DefaultThresholds())
	b.Meter = &mb
	o := NewOptimized(DefaultThresholds())
	o.Meter = &mo
	b.Detect(l)
	o.Detect(l)

	costB := mb.Total()
	costO := mo.Total()
	if costB <= costO {
		t.Fatalf("basic cost %d not above optimized cost %d", costB, costO)
	}
	if costB < 4*costO {
		t.Fatalf("basic cost %d not clearly asymptotically above optimized %d", costB, costO)
	}
	if mo.Get(metrics.CostMatrixScan) != 0 {
		t.Fatal("optimized detector performed row scans")
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	r.Flagged = make([]bool, 4)
	l := reputation.NewLedger(4)
	l.Record(0, 1, 1)
	r.addPair(l, 2, 1)
	r.addPair(l, 1, 2) // duplicate in reverse order
	if len(r.Pairs) != 1 {
		t.Fatalf("duplicate pair stored: %+v", r.Pairs)
	}
	if r.Pairs[0].I != 1 || r.Pairs[0].J != 2 {
		t.Fatalf("pair not normalized: %+v", r.Pairs[0])
	}
	if !r.HasPair(2, 1) || r.HasPair(0, 1) {
		t.Fatal("HasPair wrong")
	}
}

func BenchmarkBasicDetect200(b *testing.B) {
	l := benchLedger(200)
	d := NewBasic(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

func BenchmarkOptimizedDetect200(b *testing.B) {
	l := benchLedger(200)
	d := NewOptimized(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

func benchLedger(n int) *reputation.Ledger {
	l := reputation.NewLedger(n)
	r := rng.New(1)
	for k := 0; k < n*60; k++ {
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
	for k := 0; k < 30; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}
	return l
}

// TestResultEmpty pins the zero-value Result behavior: no pairs, no
// flagged nodes, and HasPair is false for anything.
func TestResultEmpty(t *testing.T) {
	var r Result
	if r.HasPair(0, 1) || r.HasPair(1, 0) || r.HasPair(-1, 5) {
		t.Fatal("empty result reports a pair")
	}
	if nodes := r.FlaggedNodes(); len(nodes) != 0 {
		t.Fatalf("empty result flags nodes: %v", nodes)
	}
}

// TestHasPairOrderInsensitive verifies {a, b} is found regardless of
// argument order, including equal and out-of-range arguments.
func TestHasPairOrderInsensitive(t *testing.T) {
	l := reputation.NewLedger(6)
	var r Result
	r.Flagged = make([]bool, 6)
	r.addPair(l, 4, 2)
	if !r.HasPair(2, 4) || !r.HasPair(4, 2) {
		t.Fatal("pair not found in one of the argument orders")
	}
	if r.HasPair(2, 2) || r.HasPair(4, 4) {
		t.Fatal("self pair reported")
	}
	if r.HasPair(2, 5) || r.HasPair(-3, 2) || r.HasPair(100, 200) {
		t.Fatal("absent pair reported")
	}
}

// TestFlaggedNodesSortedDistinct verifies FlaggedNodes is ascending and
// deduplicated when a node appears in several pairs.
func TestFlaggedNodesSortedDistinct(t *testing.T) {
	l := reputation.NewLedger(8)
	var r Result
	r.Flagged = make([]bool, 8)
	r.addPair(l, 7, 3)
	r.addPair(l, 3, 1)
	r.addPair(l, 5, 3)
	nodes := r.FlaggedNodes()
	want := []int{1, 3, 5, 7}
	if len(nodes) != len(want) {
		t.Fatalf("FlaggedNodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("FlaggedNodes = %v, want %v", nodes, want)
		}
	}
}

// TestDetectAmongOutOfRangeCandidates verifies both detectors ignore
// negative and too-large candidate indices instead of panicking, and
// still find the planted pair among the valid ones.
func TestDetectAmongOutOfRangeCandidates(t *testing.T) {
	l := buildCollusionLedger(t)
	candidates := []int{-5, -1, 1, 2, 3, 12, 99999}
	for _, d := range []Detector{NewBasic(DefaultThresholds()), NewOptimized(DefaultThresholds())} {
		res := d.DetectAmong(l, candidates)
		if !res.HasPair(1, 2) {
			t.Fatalf("%s: planted pair missed with out-of-range candidates", d.Name())
		}
		if len(res.Flagged) != l.Size() {
			t.Fatalf("%s: Flagged sized %d, want %d", d.Name(), len(res.Flagged), l.Size())
		}
	}
}

// TestDetectAmongEmptyCandidates verifies an empty candidate set yields
// an empty result with a correctly sized Flagged slice.
func TestDetectAmongEmptyCandidates(t *testing.T) {
	l := buildCollusionLedger(t)
	for _, d := range []Detector{NewBasic(DefaultThresholds()), NewOptimized(DefaultThresholds())} {
		res := d.DetectAmong(l, nil)
		if len(res.Pairs) != 0 {
			t.Fatalf("%s: pairs detected with no candidates: %+v", d.Name(), res.Pairs)
		}
		if len(res.FlaggedNodes()) != 0 {
			t.Fatalf("%s: nodes flagged with no candidates", d.Name())
		}
		if len(res.Flagged) != l.Size() {
			t.Fatalf("%s: Flagged sized %d, want %d", d.Name(), len(res.Flagged), l.Size())
		}
	}
}
