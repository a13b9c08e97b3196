package core

// This file preserves the pre-adjacency dense-scan detectors verbatim as a
// reference implementation. The production detectors now iterate the
// ledger's active-rater adjacency lists and charge the dense element-visit
// counts arithmetically; the property tests below require that, on
// randomized ledgers, the sparse-aware detectors report the same pairs AND
// the same per-counter metered cost as these dense references — which is
// what keeps Figure 13 unchanged while the wall clock drops.

import (
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

type denseCharger struct {
	meter *metrics.CostMeter
}

func (d denseCharger) charge(name string, n int64) {
	if d.meter != nil {
		d.meter.Add(name, n)
	}
}

// denseOutsideLow is the original O(n) row re-scan.
func denseOutsideLow(ch denseCharger, th Thresholds, l *reputation.Ledger, target, rater int) bool {
	n := l.Size()
	othersTotal, othersPos := 0, 0
	for k := 0; k < n; k++ {
		if k == rater || k == target {
			continue
		}
		othersTotal += l.PairTotal(target, k)
		othersPos += l.PairPositive(target, k)
	}
	ch.charge(metrics.CostMatrixScan, int64(n))
	if othersTotal == 0 {
		return true
	}
	return float64(othersPos)/float64(othersTotal) < th.Tb
}

// pairIndex maps the unordered pair {a, b} to its flat upper-triangular
// slot a*n+b (after normalizing a < b) in an n*n bitset.
func pairIndex(a, b, n int) int {
	if a > b {
		a, b = b, a
	}
	return a*n + b
}

// denseBasicDetectAmong is the original Basic.DetectAmong: full row scans
// with a flat n×n checked bitset.
func denseBasicDetectAmong(th Thresholds, meter *metrics.CostMeter, l *reputation.Ledger, candidates []int) Result {
	ch := denseCharger{meter}
	n := l.Size()
	res := Result{Flagged: make([]bool, n)}
	high := make([]bool, n)
	for _, c := range candidates {
		if c >= 0 && c < n {
			high[c] = true
		}
	}
	checked := make([]bool, n*n)
	for i := 0; i < n; i++ {
		if !high[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			key := pairIndex(i, j, n)
			if checked[key] {
				continue
			}
			ch.charge(metrics.CostPairCheck, 1)
			ch.charge(metrics.CostMatrixScan, 1)
			if !high[j] {
				continue
			}
			checked[key] = true
			outI := denseOutsideLow(ch, th, l, i, j)
			nij := l.PairTotal(i, j)
			if nij < th.TN ||
				float64(l.PairPositive(i, j))/float64(nij) < th.Ta {
				continue
			}
			if th.StrictReverse && !outI {
				continue
			}
			nji := l.PairTotal(j, i)
			ch.charge(metrics.CostMatrixScan, 1)
			if nji < th.TN ||
				float64(l.PairPositive(j, i))/float64(nji) < th.Ta {
				continue
			}
			if th.StrictReverse {
				if denseOutsideLow(ch, th, l, j, i) {
					res.addPair(l, i, j)
				}
				continue
			}
			if outI || denseOutsideLow(ch, th, l, j, i) {
				res.addPair(l, i, j)
			}
		}
	}
	denseAssociationSweep(l, th, &res, func(n int64) { ch.charge(metrics.CostPairCheck, n) })
	res.sortPairs()
	return res
}

// denseOptimizedDetectAmong is the original Optimized.DetectAmong.
func denseOptimizedDetectAmong(th Thresholds, meter *metrics.CostMeter, l *reputation.Ledger, candidates []int) Result {
	ch := denseCharger{meter}
	n := l.Size()
	res := Result{Flagged: make([]bool, n)}
	high := make([]bool, n)
	for _, c := range candidates {
		if c >= 0 && c < n {
			high[c] = true
		}
	}
	checked := make([]bool, n*n)
	for i := 0; i < n; i++ {
		if !high[i] {
			continue
		}
		ri := float64(l.SummationScore(i))
		ni := l.TotalFor(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			key := pairIndex(i, j, n)
			if checked[key] {
				continue
			}
			ch.charge(metrics.CostPairCheck, 1)
			if !high[j] {
				continue
			}
			checked[key] = true
			nij, nji := l.PairTotal(i, j), l.PairTotal(j, i)
			if nij < th.TN || nji < th.TN {
				continue
			}
			rj := float64(l.SummationScore(j))
			nj := l.TotalFor(j)
			if th.StrictReverse {
				ch.charge(metrics.CostBoundCheck, 1)
				if !th.BoundsHold(ri, ni, nij) {
					continue
				}
				ch.charge(metrics.CostBoundCheck, 1)
				if !th.BoundsHold(rj, nj, nji) {
					continue
				}
				res.addPair(l, i, j)
				continue
			}
			if float64(l.PairPositive(i, j))/float64(nij) < th.Ta ||
				float64(l.PairPositive(j, i))/float64(nji) < th.Ta {
				continue
			}
			ch.charge(metrics.CostBoundCheck, 1)
			holdI := th.BoundsHold(ri, ni, nij)
			if !holdI {
				ch.charge(metrics.CostBoundCheck, 1)
				if !th.BoundsHold(rj, nj, nji) {
					continue
				}
			}
			res.addPair(l, i, j)
		}
	}
	denseAssociationSweep(l, th, &res, func(n int64) { ch.charge(metrics.CostPairCheck, n) })
	res.sortPairs()
	return res
}

// denseAssociationSweep is the original all-columns closure sweep.
func denseAssociationSweep(l *reputation.Ledger, th Thresholds, res *Result, charge func(int64)) {
	if th.StrictReverse {
		return
	}
	n := l.Size()
	queue := res.FlaggedNodes()
	inQueue := make(map[int]bool, len(queue))
	for _, c := range queue {
		inQueue[c] = true
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for x := 0; x < n; x++ {
			if x == c || res.HasPair(c, x) {
				continue
			}
			charge(1)
			ncx, nxc := l.PairTotal(c, x), l.PairTotal(x, c)
			if ncx < th.TN || nxc < th.TN {
				continue
			}
			if float64(l.PairPositive(c, x))/float64(ncx) < th.Ta ||
				float64(l.PairPositive(x, c))/float64(nxc) < th.Ta {
				continue
			}
			res.addPair(l, c, x)
			if !inQueue[x] {
				inQueue[x] = true
				queue = append(queue, x)
			}
		}
	}
}

// randomDetectorLedger generates a ledger with background noise, popular
// honest nodes, and several planted colluding structures (pairs, chains)
// so both the detection and the association sweep paths are exercised.
func randomDetectorLedger(r *rng.Rand, n int) *reputation.Ledger {
	l := reputation.NewLedger(n)
	// Background organic ratings, mostly positive.
	for k := 0; k < n*8; k++ {
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
	// Planted colluding pairs with mutual floods.
	pairs := r.IntRange(1, 4)
	for p := 0; p < pairs; p++ {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		flood := r.IntRange(20, 35)
		for k := 0; k < flood; k++ {
			l.Record(a, b, 1)
			l.Record(b, a, 1)
		}
	}
	// A chain a-b-c to drive the association sweep's transitive closure.
	a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
	if a != b && b != c && a != c {
		for k := 0; k < 25; k++ {
			l.Record(a, b, 1)
			l.Record(b, a, 1)
			l.Record(b, c, 1)
			l.Record(c, b, 1)
		}
	}
	return l
}

func compareResults(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, dense reference %d\ngot  %+v\nwant %+v",
			tag, len(got.Pairs), len(want.Pairs), got.Pairs, want.Pairs)
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d = %+v, dense reference %+v", tag, i, got.Pairs[i], want.Pairs[i])
		}
	}
	for i := range want.Flagged {
		if got.Flagged[i] != want.Flagged[i] {
			t.Fatalf("%s: Flagged[%d] = %v, dense reference %v", tag, i, got.Flagged[i], want.Flagged[i])
		}
	}
}

func compareMeters(t *testing.T, tag string, got, want *metrics.CostMeter) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	for name, w := range ws {
		if gs[name] != w {
			t.Fatalf("%s: counter %s = %d, dense reference %d (Figure 13 would change)",
				tag, name, gs[name], w)
		}
	}
	for name, g := range gs {
		if _, ok := ws[name]; !ok && g != 0 {
			t.Fatalf("%s: unexpected counter %s = %d", tag, name, g)
		}
	}
}

// TestSparseDetectorsMatchDenseReference is the contract of the sparse hot
// path: identical pairs, identical flags, and identical per-counter costs
// versus the preserved dense implementation, across randomized ledgers,
// threshold variants, and candidate restrictions.
func TestSparseDetectorsMatchDenseReference(t *testing.T) {
	r := rng.New(1234).Child("dense-equivalence")
	for trial := 0; trial < 60; trial++ {
		n := r.IntRange(4, 40)
		l := randomDetectorLedger(r, n)
		th := Thresholds{
			TR: float64(r.IntRange(0, 3)),
			TN: r.IntRange(1, 25),
			Ta: 0.5 + 0.5*r.Float64(),
			Tb: r.Float64(),
		}
		if r.Bool(0.25) {
			th.StrictReverse = true
		}
		var candidates []int
		if r.Bool(0.3) {
			// Restricted candidate set, possibly with duplicates and
			// out-of-range entries (DetectAmong must tolerate both).
			for k := 0; k < r.IntRange(1, n+3); k++ {
				candidates = append(candidates, r.IntRange(-1, n))
			}
		} else {
			candidates = summationCandidates(l, th.TR)
		}

		var mb, mbRef metrics.CostMeter
		b := NewBasic(th)
		b.Meter = &mb
		gotB := b.DetectAmong(l, candidates)
		wantB := denseBasicDetectAmong(th, &mbRef, l, candidates)
		compareResults(t, "basic", gotB, wantB)
		compareMeters(t, "basic", &mb, &mbRef)

		var mo, moRef metrics.CostMeter
		o := NewOptimized(th)
		o.Meter = &mo
		gotO := o.DetectAmong(l, candidates)
		wantO := denseOptimizedDetectAmong(th, &moRef, l, candidates)
		compareResults(t, "optimized", gotO, wantO)
		compareMeters(t, "optimized", &mo, &moRef)
	}
}
