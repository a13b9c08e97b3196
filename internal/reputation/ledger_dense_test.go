package reputation

import (
	"runtime"
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// denseLedger is the pre-CSR reference implementation: three dense n²
// count arrays. It is deliberately the dumbest possible realization of the
// Ledger contract, preserved test-only so the sparse implementation can be
// property-checked against it accessor by accessor.
type denseLedger struct {
	n                  int
	total, pos, neg    []int32 // n² row-major: [target*n+rater]
	recvTotal, recvPos []int64
	recvNeg, sentTotal []int64
	dirty              []bool
}

func newDenseLedger(n int) *denseLedger {
	return &denseLedger{
		n:     n,
		total: make([]int32, n*n), pos: make([]int32, n*n), neg: make([]int32, n*n),
		recvTotal: make([]int64, n), recvPos: make([]int64, n),
		recvNeg: make([]int64, n), sentTotal: make([]int64, n),
		dirty: make([]bool, n),
	}
}

func (d *denseLedger) record(rater, target, polarity int) {
	at := target*d.n + rater
	d.total[at]++
	d.recvTotal[target]++
	d.sentTotal[rater]++
	switch polarity {
	case 1:
		d.pos[at]++
		d.recvPos[target]++
	case -1:
		d.neg[at]++
		d.recvNeg[target]++
	}
	d.dirty[target] = true
}

func (d *denseLedger) merge(o *denseLedger) {
	for t := 0; t < d.n; t++ {
		rowTouched := false
		for r := 0; r < d.n; r++ {
			at := t*d.n + r
			if o.total[at] == 0 {
				continue
			}
			d.total[at] += o.total[at]
			d.pos[at] += o.pos[at]
			d.neg[at] += o.neg[at]
			rowTouched = true
		}
		if rowTouched {
			d.recvTotal[t] += o.recvTotal[t]
			d.recvPos[t] += o.recvPos[t]
			d.recvNeg[t] += o.recvNeg[t]
			d.dirty[t] = true
		}
	}
	for r := 0; r < d.n; r++ {
		d.sentTotal[r] += o.sentTotal[r]
	}
}

func (d *denseLedger) subtract(o *denseLedger) {
	for t := 0; t < d.n; t++ {
		rowTouched := false
		for r := 0; r < d.n; r++ {
			at := t*d.n + r
			if o.total[at] == 0 {
				continue
			}
			d.total[at] -= o.total[at]
			d.pos[at] -= o.pos[at]
			d.neg[at] -= o.neg[at]
			rowTouched = true
		}
		if rowTouched {
			d.recvTotal[t] -= o.recvTotal[t]
			d.recvPos[t] -= o.recvPos[t]
			d.recvNeg[t] -= o.recvNeg[t]
			d.dirty[t] = true
		}
	}
	for r := 0; r < d.n; r++ {
		d.sentTotal[r] -= o.sentTotal[r]
	}
}

func (d *denseLedger) reset() {
	for t := 0; t < d.n; t++ {
		if d.recvTotal[t] > 0 {
			d.dirty[t] = true
		}
	}
	clear(d.total)
	clear(d.pos)
	clear(d.neg)
	clear(d.recvTotal)
	clear(d.recvPos)
	clear(d.recvNeg)
	clear(d.sentTotal)
}

func (d *denseLedger) clone() *denseLedger {
	c := newDenseLedger(d.n)
	copy(c.total, d.total)
	copy(c.pos, d.pos)
	copy(c.neg, d.neg)
	copy(c.recvTotal, d.recvTotal)
	copy(c.recvPos, d.recvPos)
	copy(c.recvNeg, d.recvNeg)
	copy(c.sentTotal, d.sentTotal)
	copy(c.dirty, d.dirty)
	return c
}

func (d *denseLedger) dirtyTargets() []int {
	var out []int
	for t, f := range d.dirty {
		if f {
			out = append(out, t)
		}
	}
	return out
}

func (d *denseLedger) clearDirty() { clear(d.dirty) }

// checkAgainstDense compares every public accessor of the sparse ledger,
// including the aligned PairCountsOf view and the dirty set, against the
// dense reference.
func checkAgainstDense(t *testing.T, step string, l *Ledger, d *denseLedger) {
	t.Helper()
	if l.Size() != d.n {
		t.Fatalf("%s: Size = %d, want %d", step, l.Size(), d.n)
	}
	for target := 0; target < d.n; target++ {
		if got, want := l.TotalFor(target), int(d.recvTotal[target]); got != want {
			t.Fatalf("%s: TotalFor(%d) = %d, want %d", step, target, got, want)
		}
		if got, want := l.PositiveFor(target), int(d.recvPos[target]); got != want {
			t.Fatalf("%s: PositiveFor(%d) = %d, want %d", step, target, got, want)
		}
		if got, want := l.recvNeg[target], d.recvNeg[target]; got != want {
			t.Fatalf("%s: recvNeg[%d] = %d, want %d", step, target, got, want)
		}
		if got, want := l.OutgoingTotal(target), int(d.sentTotal[target]); got != want {
			t.Fatalf("%s: OutgoingTotal(%d) = %d, want %d", step, target, got, want)
		}
		if got, want := l.SummationScore(target), int(d.recvPos[target]-d.recvNeg[target]); got != want {
			t.Fatalf("%s: SummationScore(%d) = %d, want %d", step, target, got, want)
		}
		pc := l.PairCountsOf(target)
		if len(pc.Total) != len(pc.Raters) || len(pc.Pos) != len(pc.Raters) || len(pc.Neg) != len(pc.Raters) {
			t.Fatalf("%s: PairCountsOf(%d) misaligned: raters %d total %d pos %d neg %d",
				step, target, len(pc.Raters), len(pc.Total), len(pc.Pos), len(pc.Neg))
		}
		k := 0
		for rater := 0; rater < d.n; rater++ {
			at := target*d.n + rater
			if got, want := l.PairTotal(target, rater), int(d.total[at]); got != want {
				t.Fatalf("%s: PairTotal(%d, %d) = %d, want %d", step, target, rater, got, want)
			}
			if got, want := l.PairPositive(target, rater), int(d.pos[at]); got != want {
				t.Fatalf("%s: PairPositive(%d, %d) = %d, want %d", step, target, rater, got, want)
			}
			if got, want := l.OthersTotal(target, rater), int(d.recvTotal[target])-int(d.total[at]); got != want {
				t.Fatalf("%s: OthersTotal(%d, %d) = %d, want %d", step, target, rater, got, want)
			}
			if got, want := l.OthersPositive(target, rater), int(d.recvPos[target])-int(d.pos[at]); got != want {
				t.Fatalf("%s: OthersPositive(%d, %d) = %d, want %d", step, target, rater, got, want)
			}
			if d.total[at] == 0 {
				continue
			}
			// The aligned view must list exactly the nonzero pairs, in
			// ascending rater order, with matching counts.
			if k >= len(pc.Raters) || int(pc.Raters[k]) != rater {
				t.Fatalf("%s: PairCountsOf(%d).Raters[%d] misses rater %d (have %v)",
					step, target, k, rater, pc.Raters)
			}
			if int(pc.Total[k]) != int(d.total[at]) || int(pc.Pos[k]) != int(d.pos[at]) || int(pc.Neg[k]) != int(d.neg[at]) {
				t.Fatalf("%s: PairCountsOf(%d)[%d] = (%d,%d,%d), want (%d,%d,%d)",
					step, target, k, pc.Total[k], pc.Pos[k], pc.Neg[k], d.total[at], d.pos[at], d.neg[at])
			}
			k++
		}
		if k != len(pc.Raters) {
			t.Fatalf("%s: PairCountsOf(%d) has %d extra raters: %v", step, target, len(pc.Raters)-k, pc.Raters[k:])
		}
	}
	gotDirty := l.DirtyTargets()
	wantDirty := d.dirtyTargets()
	if len(gotDirty) != len(wantDirty) {
		t.Fatalf("%s: DirtyTargets = %v, want %v", step, gotDirty, wantDirty)
	}
	for i := range gotDirty {
		if gotDirty[i] != wantDirty[i] {
			t.Fatalf("%s: DirtyTargets = %v, want %v", step, gotDirty, wantDirty)
		}
	}
}

// TestLedgerMatchesDenseReference drives the sparse ledger and the dense
// reference through identical randomized Record/Merge/Subtract/Clone/
// Reset/ClearDirty workloads and checks every accessor (Pair*,
// receive/sent totals, Others*, PairCountsOf alignment, dirty set) stays
// equivalent after each step. Merged side deltas are
// kept and later subtracted — the windowed eviction pattern — so span
// shrinking, row removal and arena free-list recycling all run under the
// dense cross-check.
func TestLedgerMatchesDenseReference(t *testing.T) {
	const (
		n     = 13
		steps = 1500
	)
	r := rng.New(99).Child("ledger-dense-equiv")
	l, d := NewLedger(n), newDenseLedger(n)
	side, sideD := NewLedger(n), newDenseLedger(n)
	// Deltas merged into main and not yet subtracted back out, oldest
	// first — the same discipline WindowLedger's ring enforces, which
	// keeps every Subtract an exact inverse of a prior Merge.
	var pending []*Ledger
	var pendingD []*denseLedger

	for step := 0; step < steps; step++ {
		switch op := r.Intn(100); {
		case op < 58: // Record into the main pair
			rater, target := r.Intn(n), r.Intn(n)
			if rater == target {
				continue
			}
			p := r.IntRange(-1, 1)
			l.Record(rater, target, p)
			d.record(rater, target, p)
		case op < 75: // Record into the side pair
			rater, target := r.Intn(n), r.Intn(n)
			if rater == target {
				continue
			}
			p := r.IntRange(-1, 1)
			side.Record(rater, target, p)
			sideD.record(rater, target, p)
		case op < 83: // Merge side into main, remember the delta, reset side
			if err := l.Merge(side); err != nil {
				t.Fatal(err)
			}
			d.merge(sideD)
			pending = append(pending, cloneLedger(side))
			pendingD = append(pendingD, sideD.clone())
			side.Reset()
			sideD.reset()
			checkAgainstDense(t, "side after reset", side, sideD)
		case op < 89: // Subtract the oldest merged delta (window eviction)
			if len(pending) == 0 {
				continue
			}
			if err := l.Subtract(pending[0]); err != nil {
				t.Fatal(err)
			}
			d.subtract(pendingD[0])
			pending, pendingD = pending[1:], pendingD[1:]
		case op < 93: // Clone and verify independence
			cl, cd := cloneLedger(l), d.clone()
			checkAgainstDense(t, "clone", cl, cd)
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				cl.Record(a, b, 1)
			}
		case op < 97: // Snapshot-and-clear, as the incremental cycle does
			l.ClearDirty()
			d.clearDirty()
		default:
			l.Reset()
			d.reset()
			// Old deltas are no longer subsets of the emptied main ledger.
			pending, pendingD = nil, nil
		}
		checkAgainstDense(t, "main", l, d)
	}
}

// TestLedgerResetReusesArena pins the free-list contract the window
// ring's delta recycling depends on: Reset returns every row span to the
// arena's free lists, so refilling the ledger — even with a different
// row shape — reuses recycled spans instead of growing new blocks. After
// one warm-up fill the Reset+refill cycle must be allocation-free.
func TestLedgerResetReusesArena(t *testing.T) {
	const n = 64
	r := rng.New(41).Child("reset-reuse")
	type rec struct{ rater, target, pol int }
	batches := make([][]rec, 4)
	for b := range batches {
		count := 600 + r.Intn(400)
		for k := 0; k < count; k++ {
			rater, target := r.Intn(n), r.Intn(n)
			if rater == target {
				continue
			}
			batches[b] = append(batches[b], rec{rater, target, r.IntRange(-1, 1)})
		}
	}
	l := NewLedger(n)
	fill := func(b int) {
		l.Reset()
		l.ClearDirty()
		for _, rc := range batches[b] {
			l.Record(rc.rater, rc.target, rc.pol)
		}
	}
	for b := range batches {
		fill(b) // warm up: grow the arena to the largest shape once
	}
	idx := 0
	allocs := testing.AllocsPerRun(20, func() {
		fill(idx % len(batches))
		idx++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Reset+refill allocates %v objects/op, want 0", allocs)
	}
}

// TestNewLedgerAllocationIsLinear pins the tentpole's memory contract: an
// empty ledger for a large population must not allocate any O(n²) array.
// 400k nodes dense would need 3×400k²×4 bytes ≈ 1.9 TB; the sparse ledger
// must stay under a few hundred bytes per node.
func TestNewLedgerAllocationIsLinear(t *testing.T) {
	const n = 400_000
	allocs := testing.AllocsPerRun(1, func() {
		l := NewLedger(n)
		if l.Size() != n {
			t.Fatal("bad size")
		}
	})
	// 9 backing arrays + the struct itself; a dense implementation would
	// not fail this count but would fail the byte bound below.
	if allocs > 16 {
		t.Fatalf("NewLedger(%d) made %v allocations, want <= 16", n, allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := NewLedger(n)
	runtime.ReadMemStats(&after)
	if l.Size() != n {
		t.Fatal("bad size")
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	if perNode > 200 {
		t.Fatalf("NewLedger allocates %.0f bytes/node, want <= 200 (O(n), not O(n²))", perNode)
	}
}
