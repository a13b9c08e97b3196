package core

import (
	"testing"

	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// sparseBenchLedger models a large network where each node has rated only
// a handful of peers — the regime where the adjacency-list hot path wins:
// the dense reference visits all n-1 columns of a row while the sparse
// detector walks ~avgDegree active raters (the cost meter still charges
// the dense counts either way, so Figure 13 is unaffected).
func sparseBenchLedger(n, avgDegree int) *reputation.Ledger {
	l := reputation.NewLedger(n)
	r := rng.New(7)
	for k := 0; k < n*avgDegree; k++ {
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
	// A few planted colluding pairs so the detection path does real work.
	for p := 0; p < 4; p++ {
		a, b := 10*p+1, 10*p+2
		for k := 0; k < 30; k++ {
			l.Record(a, b, 1)
			l.Record(b, a, 1)
		}
	}
	return l
}

// BenchmarkBasicDetectSparse1000 measures the production adjacency-list
// Basic detector on a 1000-node sparse ledger.
func BenchmarkBasicDetectSparse1000(b *testing.B) {
	l := sparseBenchLedger(1000, 8)
	d := NewBasic(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

// BenchmarkBasicDetectDense1000 is the pre-change dense-scan baseline on
// the identical ledger, for a direct sparse-vs-dense comparison.
func BenchmarkBasicDetectDense1000(b *testing.B) {
	l := sparseBenchLedger(1000, 8)
	th := DefaultThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseBasicDetectAmong(th, nil, l, summationCandidates(l, th.TR))
	}
}

// BenchmarkOptimizedDetectSparse1000 and its dense baseline cover the
// Formula (2) detector in the same sparse regime.
func BenchmarkOptimizedDetectSparse1000(b *testing.B) {
	l := sparseBenchLedger(1000, 8)
	d := NewOptimized(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

func BenchmarkOptimizedDetectDense1000(b *testing.B) {
	l := sparseBenchLedger(1000, 8)
	th := DefaultThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseOptimizedDetectAmong(th, nil, l, summationCandidates(l, th.TR))
	}
}

// The Sparse100k benchmarks are the scale the dense ledger made
// impossible: 100,000 nodes at ~10 ratings/node would have needed three
// 100k² int32 arrays (~120 GB); the CSR ledger builds and detects the same
// population within ordinary laptop memory (the n=100k acceptance bound is
// < 1 GiB, dominated by the per-row slice headers).

func BenchmarkBasicDetectSparse100k(b *testing.B) {
	l := sparseBenchLedger(100_000, 10)
	d := NewBasic(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

func BenchmarkOptimizedDetectSparse100k(b *testing.B) {
	l := sparseBenchLedger(100_000, 10)
	d := NewOptimized(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

// trickleColluders is the number of planted colluders in the trickle
// benchmark: nodes 0..7, paired (0,1), (2,3), (4,5) and (6,7).
const trickleColluders = 8

// trickleRating draws one rating of the resident service's trickle shape:
// uniform rater and target, positive with probability 0.55, so that about
// half the nodes reach the default T_R = 1, except that honest raters rate
// a colluder positively with probability 0.02 (C2).
func trickleRating(r *rng.Rand, n int) (rater, target, pol int) {
	for {
		rater, target = r.Intn(n), r.Intn(n)
		if rater != target {
			break
		}
	}
	pos := 0.55
	if target < trickleColluders {
		pos = 0.02
	}
	if r.Bool(pos) {
		return rater, target, 1
	}
	return rater, target, -1
}

// BenchmarkIncrementalDetectCumulative100k is the trickle epoch at
// n = 100k over a cumulative ledger: ten ratings of history per node,
// four planted pairs flooding each other with 30 positive ratings a
// side, and epochs of 1,000 fresh ratings that dirty ~1% of the rows. One
// op records an epoch's ratings and runs DetectIncremental on its dirty
// rows, so it pins the O(dirty) pass: the ~50k candidates' rows are not
// walked. The ledger restarts from the same history every trickleEpochs
// epochs, outside the timer, so its growth stays bounded at any b.N.
func BenchmarkIncrementalDetectCumulative100k(b *testing.B) {
	const n, epochRatings, trickleEpochs = 100_000, 1_000, 64
	r := rng.New(11)
	history := reputation.NewLedger(n)
	for k := 0; k < 10*n; k++ {
		history.Record(trickleRating(r, n))
	}
	for c := 0; c < trickleColluders; c += 2 {
		for k := 0; k < 30; k++ {
			history.Record(c, c+1, 1)
			history.Record(c+1, c, 1)
		}
	}
	epochs := make([][][3]int, trickleEpochs)
	for e := range epochs {
		for k := 0; k < epochRatings; k++ {
			rater, target, pol := trickleRating(r, n)
			epochs[e] = append(epochs[e], [3]int{rater, target, pol})
		}
	}
	var l *reputation.Ledger
	var d *Optimized
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % trickleEpochs
		if e == 0 {
			b.StopTimer()
			l = reputation.NewLedger(n)
			history.CloneInto(l)
			d = NewOptimized(DefaultThresholds())
			d.DetectIncremental(l, l.DirtyTargets())
			l.ClearDirty()
			b.StartTimer()
		}
		for _, rt := range epochs[e] {
			l.Record(rt[0], rt[1], rt[2])
		}
		pairs = len(d.DetectIncremental(l, l.DirtyTargets()).Pairs)
		l.ClearDirty()
	}
	if pairs != trickleColluders/2 {
		b.Fatalf("last epoch detected %d pairs, want the %d planted", pairs, trickleColluders/2)
	}
}
