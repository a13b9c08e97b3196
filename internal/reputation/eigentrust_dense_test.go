package reputation

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/rng"
)

// denseEigenTrustScores is the preserved dense reference implementation:
// the engine exactly as it was before the sparse rewrite, materializing n
// dense rows and multiplying full rows each iteration. It shares params()
// and pretrustInto with the live engine, so the two differ only in
// storage layout — the equivalence tests below pin them bit-identical.
func denseEigenTrustScores(e *EigenTrust, l *Ledger) (scores []float64, iters int) {
	n := l.Size()
	alpha, eps, maxIter := e.params()
	p := make([]float64, n)
	e.pretrustInto(p)

	// Dense build via CSR transpose, exactly as the pre-sparse engine:
	// scanning targets j ascending appends each rater's edges with j
	// ascending, so row sums accumulate in ascending j order.
	off := make([]int, n+1)
	for j := 0; j < n; j++ {
		pc := l.PairCountsOf(j)
		for k := range pc.Raters {
			if pc.Pos[k]-pc.Neg[k] > 0 {
				off[int(pc.Raters[k])+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	edgeTo := make([]int32, off[n])
	edgeS := make([]float64, off[n])
	fill := make([]int, n)
	copy(fill, off[:n])
	for j := 0; j < n; j++ {
		pc := l.PairCountsOf(j)
		for k, r32 := range pc.Raters {
			if s := pc.Pos[k] - pc.Neg[k]; s > 0 {
				at := fill[r32]
				edgeTo[at] = int32(j)
				edgeS[at] = float64(s)
				fill[r32] = at + 1
			}
		}
	}
	c := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		sum := 0.0
		for at := off[i]; at < off[i+1]; at++ {
			row[edgeTo[at]] = edgeS[at]
			sum += edgeS[at]
		}
		if sum == 0 {
			copy(row, p)
		} else {
			for at := off[i]; at < off[i+1]; at++ {
				row[edgeTo[at]] /= sum
			}
		}
		c[i] = row
	}

	t := append([]float64(nil), p...)
	next := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		iters++
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			ti := t[i]
			if ti == 0 {
				continue
			}
			row := c[i]
			for j := 0; j < n; j++ {
				next[j] += row[j] * ti
			}
		}
		delta := 0.0
		for j := 0; j < n; j++ {
			next[j] = (1-alpha)*next[j] + alpha*p[j]
			delta += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if delta < eps {
			break
		}
	}
	return t, iters
}

// assertBitIdentical compares sparse-engine output against the dense
// reference bit for bit, plus iteration counts.
func assertBitIdentical(t *testing.T, ctx string, got, want []float64, gotIters, wantIters int) {
	t.Helper()
	if gotIters != wantIters {
		t.Fatalf("%s: %d iterations, dense reference did %d", ctx, gotIters, wantIters)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, dense reference has %d", ctx, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s: score[%d] = %v (bits %x), dense reference %v (bits %x)",
				ctx, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// equivalenceWorkerCounts are the Workers values every equivalence test
// runs: 0 is the auto-sized fan-out, 1 the sequential path.
var equivalenceWorkerCounts = []int{0, 1, 2, 3, 4, 8}

// atLeastProcs raises GOMAXPROCS to procs for the rest of the test when it
// is lower, so the auto-sized fan-out has processors to spread over even
// on a one-core host.
func atLeastProcs(tb testing.TB, procs int) {
	if prev := runtime.GOMAXPROCS(0); prev < procs {
		runtime.GOMAXPROCS(procs)
		tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// aboveGrainLedger is a 600-node network whose columns plus pairs exceed
// two fan-out grains, so Workers == 0 fans out whenever GOMAXPROCS >= 2,
// while the dense reference stays cheap. Nodes [0, 200) form a positive
// chain 0 → 1 → … → 199 that trust from the single pretrusted peer 0 walks
// one hop per iteration. Nodes [200, 600) rate each other and the chain
// with mixed polarity (some of their rows dangle), but no chain node rates
// them, so their trust stays exactly zero for the whole run: every edge
// and dangling term they contribute is the IEEE +0 the kernel's dropped
// t[i] != 0 test used to skip.
func aboveGrainLedger(seed uint64) *Ledger {
	const n, chain = 600, 200
	r := rng.New(seed).Child("above-grain")
	l := NewLedger(n)
	for i := 0; i+1 < chain; i++ {
		l.Record(i, i+1, 1)
	}
	for k := 0; k < 110_000; k++ {
		i, j := chain+r.Intn(n-chain), r.Intn(n)
		if i == j {
			continue
		}
		pol := 1
		if r.Bool(0.35) {
			pol = -1
		}
		l.Record(i, j, pol)
	}
	return l
}

// TestEigenTrustSparseMatchesDenseReference is the tentpole equivalence
// pin: randomized ledgers (mixed polarity, dangling rows, messy pretrust
// sets including duplicates and out-of-range indices), sparse scores
// bit-identical to the preserved dense reference for every tested worker
// count, with identical iteration counts and an unchanged (dense n²)
// metered cost. One persistent engine per worker count exercises the
// cross-call scratch reuse while n varies trial to trial. The random
// trials sit below the fan-out grain; the last two ledgers sit above it,
// so Workers == 0 really fans out there.
func TestEigenTrustSparseMatchesDenseReference(t *testing.T) {
	atLeastProcs(t, 4)
	r := rng.New(11).Child("sparse-vs-dense")
	engines := make(map[int]*EigenTrust, len(equivalenceWorkerCounts))
	for _, w := range equivalenceWorkerCounts {
		engines[w] = &EigenTrust{Workers: w}
	}
	const trials = 30
	for trial := 0; trial < trials+2; trial++ {
		var l *Ledger
		switch trial {
		case trials: // above the grain, single pretrusted peer
			l = aboveGrainLedger(uint64(trial))
		case trials + 1: // above the grain, dense mixed polarity
			l = randomTrustLedger(uint64(trial), 500, 150_000)
		default:
			n := 1 + r.Intn(120)
			l = NewLedger(n)
			ratings := r.Intn(8*n + 1)
			for k := 0; k < ratings; k++ {
				i, j := r.Intn(n), r.Intn(n)
				if i == j {
					continue
				}
				pol := 1
				if r.Bool(0.35) {
					pol = -1
				}
				l.Record(i, j, pol)
			}
		}
		n := l.Size()
		if auto := (&EigenTrust{}).fanout(l); trial >= trials && auto < 2 {
			t.Fatalf("trial=%d n=%d: auto-sized fan-out is %d, want >= 2 above the grain", trial, n, auto)
		}
		var pre []int
		switch {
		case trial == trials: // the chain's single pretrusted peer
			pre = []int{0}
		case trial%3 == 0: // none configured: uniform pretrust over everyone
		case trial%3 == 1: // clean pretrust set
			for m := 0; m <= r.Intn(3); m++ {
				pre = append(pre, r.Intn(n))
			}
		default: // messy: duplicates and out-of-range entries
			pre = []int{-1, n, n + 7}
			for m := 0; m <= r.Intn(3); m++ {
				idx := r.Intn(n)
				pre = append(pre, idx, idx)
			}
		}
		ref := &EigenTrust{Pretrusted: pre}
		want, wantIters := denseEigenTrustScores(ref, l)
		for _, workers := range equivalenceWorkerCounts {
			e := engines[workers]
			e.Pretrusted = pre
			var meter metrics.CostMeter
			e.Meter = &meter
			got := e.Scores(l)
			ctx := fmt.Sprintf("trial=%d n=%d workers=%d", trial, n, workers)
			assertBitIdentical(t, ctx, got, want, e.Iterations(), wantIters)
			if gotCost, wantCost := meter.Total(), int64(wantIters)*int64(n)*int64(n); gotCost != wantCost {
				t.Fatalf("trial=%d n=%d workers=%d: metered cost %d, dense policy charges %d",
					trial, n, workers, gotCost, wantCost)
			}
		}
	}
}

// TestEigenTrustAllDanglingNetwork covers the extreme where every row
// falls back to the pretrust distribution: ledgers with only negative
// ratings and fully empty ledgers, under both sparse (designated
// pretrusted) and uniform pretrust vectors — the uniform case walks the
// full d·n dangling merge, the designated case takes the p[j] == 0
// shortcut on almost every column.
func TestEigenTrustAllDanglingNetwork(t *testing.T) {
	r := rng.New(23).Child("all-dangling")
	for _, n := range []int{1, 2, 17, 60} {
		negOnly := NewLedger(n)
		for k := 0; k < 6*n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			negOnly.Record(i, j, -1)
		}
		empty := NewLedger(n)
		cases := []struct {
			name string
			l    *Ledger
		}{{"negatives-only", negOnly}, {"empty", empty}}
		for _, tc := range cases {
			name, l := tc.name, tc.l
			for _, pre := range [][]int{nil, {0}, {0, n - 1, 0, -5, n}} {
				ref := &EigenTrust{Pretrusted: pre}
				want, wantIters := denseEigenTrustScores(ref, l)
				for _, workers := range equivalenceWorkerCounts {
					e := &EigenTrust{Pretrusted: pre, Workers: workers}
					got := e.Scores(l)
					assertBitIdentical(t, name, got, want, e.Iterations(), wantIters)
					if e.DanglingRows() != n {
						t.Fatalf("%s n=%d: %d dangling rows, want all %d", name, n, e.DanglingRows(), n)
					}
					if e.NNZ() != 0 {
						t.Fatalf("%s n=%d: nnz %d, want 0", name, n, e.NNZ())
					}
					if err := CheckDistribution(got, 1e-9); err != nil {
						t.Fatalf("%s n=%d: %v", name, n, err)
					}
				}
			}
		}
	}
}

// TestEigenTrustPretrustDedup is the regression test for the
// pretrust-vector double count: duplicate indices used to increment the
// share denominator while overwriting the same slot, so Pretrusted
// [1, 1, 2] produced a vector summing to 2/3. Deduplicated, the vector is
// a distribution and duplicates are share-neutral.
func TestEigenTrustPretrustDedup(t *testing.T) {
	e := NewEigenTrust([]int{1, 1, 2})
	p := make([]float64, 5)
	e.pretrustInto(p)
	if err := CheckDistribution(p, 0); err != nil {
		t.Fatalf("duplicate pretrusted indices broke the distribution: %v", err)
	}
	if p[1] != 0.5 || p[2] != 0.5 {
		t.Fatalf("p = %v, want 0.5 at indices 1 and 2", p)
	}
	// A duplicated entry must be share-neutral: [1,1,2] == [1,2].
	dedup := NewEigenTrust([]int{1, 2})
	q := make([]float64, 5)
	dedup.pretrustInto(q)
	for i := range p {
		if p[i] != q[i] {
			t.Fatalf("duplicates changed the pretrust vector: %v vs %v", p, q)
		}
	}
	// Out-of-range entries alone fall back to uniform.
	oob := NewEigenTrust([]int{-3, 9, 17})
	u := make([]float64, 5)
	oob.pretrustInto(u)
	for i := range u {
		if u[i] != 1.0/5 {
			t.Fatalf("out-of-range pretrusted indices: p = %v, want uniform", u)
		}
	}
	// End to end: scores stay a distribution under the messy set.
	l := randomTrustLedger(5, 30, 300)
	messy := NewEigenTrust([]int{1, 1, 2, -1, 40})
	if err := CheckDistribution(messy.Scores(l), 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestEigenTrustScratchReuseAllocs pins the O(n + nnz) allocation
// contract: after the first call warms the engine-owned matrix, vector and
// partial-sum scratch, repeated Scores calls never allocate per-row or
// per-edge storage. The sequential path allocates only the returned copy.
// The fanned-out path adds the goroutine fan-out's bookkeeping, a constant
// per parallel pass (three build passes plus one per iteration), so fan-out
// garbage that grows with the matrix or the worker count fails here.
func TestEigenTrustScratchReuseAllocs(t *testing.T) {
	l := randomTrustLedger(3, 400, 4000)
	e := NewEigenTrust([]int{0, 1, 2})
	e.Workers = 1
	e.Scores(l) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { e.Scores(l) }); allocs > 1 {
		t.Fatalf("steady-state sequential Scores made %v allocations, want <= 1 (the result copy)", allocs)
	}

	atLeastProcs(t, 4)
	big := aboveGrainLedger(3)
	auto := NewEigenTrust([]int{0})
	workers := auto.fanout(big)
	if workers < 2 {
		t.Fatalf("auto-sized fan-out is %d above the grain, want >= 2", workers)
	}
	allocs := mallocsPerCall(10, func() { auto.Scores(big) })
	passes := 3 + auto.Iterations()
	if limit := float64(1 + passes*(etPassAllocs+workers)); allocs > limit {
		t.Fatalf("steady-state auto-sized Scores (%d workers, %d passes) made %v allocations, want <= %v",
			workers, passes, allocs, limit)
	}
}

// etPassAllocs bounds the allocations of one parallel pass beyond one
// goroutine closure per worker: the pass closure, the block closure,
// ForEach's counter, wait group and panic slot, and one more for the
// runtime, which now and then allocates a goroutine descriptor when its
// free list runs dry.
const etPassAllocs = 6

// mallocsPerCall returns fn's average heap allocation count over runs
// calls after one warm-up call. Unlike testing.AllocsPerRun, which pins
// GOMAXPROCS to 1 and so would turn the auto-sized fan-out sequential, it
// measures at the current GOMAXPROCS.
func mallocsPerCall(runs int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestEigenTrustMillionNodeSmoke demonstrates the new scale ceiling: a
// 1M-node, ~1.9M-edge network (with every 17th node silent, so dangling
// rows are exercised) converges in container memory. The dense path would
// need ~8 TB for the trust matrix alone.
func TestEigenTrustMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke skipped in -short mode")
	}
	const n = 1_000_000
	l := NewLedger(n)
	for i := 0; i < n; i++ {
		if i%17 == 0 {
			continue // dangling row: rates nobody
		}
		l.Record(i, (i+1)%n, 1)
		if j := (i*7 + 3) % n; j != i {
			l.Record(i, j, 1)
		}
	}
	e := NewEigenTrust([]int{0, 1, 2})
	e.Workers = 4
	e.Epsilon = 1e-4
	e.MaxIter = 12
	scores := e.Scores(l)
	if err := CheckDistribution(scores, 1e-6); err != nil {
		t.Fatal(err)
	}
	if e.NNZ() < 1_800_000 {
		t.Fatalf("nnz = %d, want ~1.9M positive edges", e.NNZ())
	}
	if want := (n + 16) / 17; e.DanglingRows() != want {
		t.Fatalf("dangling rows = %d, want %d", e.DanglingRows(), want)
	}
	if e.Iterations() < 2 {
		t.Fatalf("power iteration converged suspiciously fast: %d iterations", e.Iterations())
	}
}
