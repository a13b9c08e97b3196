package ingest

import (
	"testing"

	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// windowRowsEqual reports whether target t's row reads identically in
// both ledgers: adjacency with aligned per-pair counts plus the receive
// totals — everything the memoizing pair screens observe about a target.
// Sent totals are rater-side state outside the row contract (only the
// full-pass sybil detector reads them, and it never memoizes).
func windowRowsEqual(a, b *reputation.Ledger, t int) bool {
	ap, bp := a.PairCountsOf(t), b.PairCountsOf(t)
	if len(ap.Raters) != len(bp.Raters) {
		return false
	}
	for k := range ap.Raters {
		if ap.Raters[k] != bp.Raters[k] || ap.Total[k] != bp.Total[k] ||
			ap.Pos[k] != bp.Pos[k] || ap.Neg[k] != bp.Neg[k] {
			return false
		}
	}
	return a.TotalFor(t) == b.TotalFor(t) &&
		a.PositiveFor(t) == b.PositiveFor(t) &&
		a.SummationScore(t) == b.SummationScore(t)
}

// TestWindowLedgerMatchesBruteForce is the delta-ring correctness gate:
// over 1000 random cycles the incrementally-maintained window must be
// observationally identical to WindowedLedger's full re-merge
// at every cycle boundary. The protocols align as follows: the reference
// records into its open period and its Window() merges the open period
// with the sealed ones, while WindowLedger seals via Roll before reading
// — so we compare right after Roll and right before the reference's
// Advance, when both views span the same set of cycles.
//
// The same loop pins Roll's dirty-set contract, which incremental
// windowed detection stands on: the returned set is sorted and
// duplicate-free, every row whose contents changed since the previous
// cycle is in it, and rows outside it kept both their contents and their
// RowGen (so memoized screens keyed on generations stay valid).
func TestWindowLedgerMatchesBruteForce(t *testing.T) {
	r := rng.New(97)
	const (
		n      = 50
		window = 7
		cycles = 1000
	)
	win := NewWindowLedger(n, window)
	ref := NewWindowedLedger(n, window)
	prev := reputation.NewLedger(n)
	win.Window().CloneInto(prev)
	prevGen := make([]uint64, n)
	for cycle := 1; cycle <= cycles; cycle++ {
		count := r.Intn(120)
		for k := 0; k < count; k++ {
			rater, target := r.Intn(n), r.Intn(n)
			if rater == target {
				continue
			}
			pol := r.Intn(3) - 1
			win.Record(rater, target, pol)
			ref.Record(rater, target, pol)
		}
		dirty := win.Roll()
		if win.filled != ref.Periods() {
			t.Fatalf("cycle %d: sealed periods = %d, want %d", cycle, win.filled, ref.Periods())
		}
		requireLedgersEqual(t, "window", win.Window(), ref.Window(), false)
		ref.Advance()

		inDirty := make([]bool, n)
		for i, row := range dirty {
			if i > 0 && dirty[i-1] >= row {
				t.Fatalf("cycle %d: dirty set %v not strictly ascending", cycle, dirty)
			}
			inDirty[row] = true
		}
		for row := 0; row < n; row++ {
			changed := !windowRowsEqual(prev, win.Window(), row)
			if changed && !inDirty[row] {
				t.Fatalf("cycle %d: row %d changed but is missing from dirty set %v", cycle, row, dirty)
			}
			if !inDirty[row] {
				if changed || win.Window().RowGen(row) != prevGen[row] {
					t.Fatalf("cycle %d: clean row %d mutated (gen %d -> %d)",
						cycle, row, prevGen[row], win.Window().RowGen(row))
				}
			}
			prevGen[row] = win.Window().RowGen(row)
		}
		win.Window().CloneInto(prev)
	}
}

// TestWindowLedgerDirtySupportsIncrementalDetection pins the property the
// simulator's incremental path relies on: Roll returns exactly the rows
// whose window contents this cycle touched — rows of the sealed delta
// plus rows of the evicted one — and consumes the merged ledger's dirty
// bookkeeping doing so.
func TestWindowLedgerDirtySupportsIncrementalDetection(t *testing.T) {
	const n, window = 20, 3
	win := NewWindowLedger(n, window)
	fill := func(pairs ...[2]int) []int {
		for _, p := range pairs {
			win.Record(p[0], p[1], 1)
		}
		return win.Roll()
	}
	requireDirty := func(got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("Roll dirty = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Roll dirty = %v, want %v", got, want)
			}
		}
	}
	requireDirty(fill([2]int{1, 2}), []int{2})
	requireDirty(fill([2]int{3, 4}), []int{4})
	requireDirty(fill([2]int{5, 6}), []int{6})
	// Sealing {7,8} evicts the cycle that touched target 2.
	requireDirty(fill([2]int{7, 8}), []int{2, 8})
	// Roll owns the merged view's dirty bookkeeping: nothing left behind.
	if leftover := win.Window().DirtyTargets(); len(leftover) != 0 {
		t.Fatalf("Window().DirtyTargets after Roll = %v, want empty", leftover)
	}
}

// TestWindowLedgerDeltaRowsAndHistogram checks the observability hooks:
// DeltaRows reports the sealed cycle's distinct targets and every Roll
// lands one observation in each of the window.delta_rows_per_cycle and
// window.dirty_rows_per_cycle histograms.
func TestWindowLedgerDeltaRowsAndHistogram(t *testing.T) {
	reg := obs.NewRegistry(nil)
	win := NewWindowLedger(10, 2)
	win.Obs = reg
	win.Record(0, 1, 1)
	win.Record(2, 1, 1)
	win.Record(0, 3, -1)
	win.Roll()
	if win.DeltaRows() != 2 {
		t.Fatalf("DeltaRows = %d, want 2 (targets 1 and 3)", win.DeltaRows())
	}
	win.Roll() // empty cycle
	if win.DeltaRows() != 0 {
		t.Fatalf("DeltaRows after empty cycle = %d, want 0", win.DeltaRows())
	}
	// Third cycle: {0,5} seals while the first cycle (targets 1 and 3)
	// evicts, so the dirty set spans three rows but the delta only one.
	win.Record(0, 5, 1)
	if dirty := win.Roll(); len(dirty) != 3 {
		t.Fatalf("eviction-cycle dirty = %v, want rows 1, 3 and 5", dirty)
	}
	hd := reg.Histogram("window.delta_rows_per_cycle")
	if hd.Count() != 3 || hd.Sum() != 3 {
		t.Fatalf("delta_rows histogram count/sum = %d/%d, want 3/3", hd.Count(), hd.Sum())
	}
	hr := reg.Histogram("window.dirty_rows_per_cycle")
	if hr.Count() != 3 || hr.Sum() != 5 {
		t.Fatalf("dirty_rows histogram count/sum = %d/%d, want 3/5", hr.Count(), hr.Sum())
	}
}

func TestNewWindowLedgerPanics(t *testing.T) {
	for _, args := range [][2]int{{0, 3}, {5, 0}, {-1, 2}, {4, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWindowLedger(%d, %d) did not panic", args[0], args[1])
				}
			}()
			NewWindowLedger(args[0], args[1])
		}()
	}
}
