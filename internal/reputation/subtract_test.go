package reputation

import (
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// randomRecords drives count random ratings into the given ledgers (all of
// population n), so each receives the identical sequence.
func randomRecords(r *rng.Rand, n, count int, into ...*Ledger) {
	for k := 0; k < count; k++ {
		rater, target := r.Intn(n), r.Intn(n)
		if rater == target {
			continue
		}
		pol := r.Intn(3) - 1
		for _, l := range into {
			l.Record(rater, target, pol)
		}
	}
}

// requireLedgersEqual asserts every observable of got matches want: the
// population, per-target adjacency with aligned counts, receive/sent
// totals, and the sorted dirty set.
func requireLedgersEqual(t *testing.T, step string, got, want *Ledger) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: Size = %d, want %d", step, got.Size(), want.Size())
	}
	for target := 0; target < want.Size(); target++ {
		gp, wp := got.PairCountsOf(target), want.PairCountsOf(target)
		if len(gp.Raters) != len(wp.Raters) {
			t.Fatalf("%s: target %d has %d raters %v, want %d %v",
				step, target, len(gp.Raters), gp.Raters, len(wp.Raters), wp.Raters)
		}
		for k := range wp.Raters {
			if gp.Raters[k] != wp.Raters[k] || gp.Total[k] != wp.Total[k] ||
				gp.Pos[k] != wp.Pos[k] || gp.Neg[k] != wp.Neg[k] {
				t.Fatalf("%s: target %d entry %d = (r%d %d/%d/%d), want (r%d %d/%d/%d)",
					step, target, k,
					gp.Raters[k], gp.Total[k], gp.Pos[k], gp.Neg[k],
					wp.Raters[k], wp.Total[k], wp.Pos[k], wp.Neg[k])
			}
		}
		if got.TotalFor(target) != want.TotalFor(target) ||
			got.PositiveFor(target) != want.PositiveFor(target) ||
			got.recvNeg[target] != want.recvNeg[target] ||
			got.OutgoingTotal(target) != want.OutgoingTotal(target) {
			t.Fatalf("%s: target %d totals %d/%d/%d out %d, want %d/%d/%d out %d",
				step, target,
				got.TotalFor(target), got.PositiveFor(target), got.recvNeg[target], got.OutgoingTotal(target),
				want.TotalFor(target), want.PositiveFor(target), want.recvNeg[target], want.OutgoingTotal(target))
		}
	}
	gd, wd := got.DirtyTargets(), want.DirtyTargets()
	if len(gd) != len(wd) {
		t.Fatalf("%s: DirtyTargets = %v, want %v", step, gd, wd)
	}
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: DirtyTargets = %v, want %v", step, gd, wd)
		}
	}
}

// TestSubtractInvertsMerge drives randomized trials of the window-ring
// algebra: base + delta - delta must be observationally identical to base,
// including the removal of raters whose pair totals return to zero.
func TestSubtractInvertsMerge(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(30)
		base := NewLedger(n)
		randomRecords(r, n, r.Intn(200), base)
		delta := NewLedger(n)
		randomRecords(r, n, r.Intn(200), delta)

		sum := cloneLedger(base)
		if err := sum.Merge(delta); err != nil {
			t.Fatal(err)
		}
		if err := sum.Subtract(delta); err != nil {
			t.Fatal(err)
		}
		// Merge+Subtract dirties every row delta touched; mirror that on the
		// expectation so the dirty sets compare equal.
		want := cloneLedger(base)
		for target := 0; target < n; target++ {
			if len(delta.RatersOf(target)) > 0 {
				want.markDirty(target)
			}
		}
		requireLedgersEqual(t, "merge+subtract round-trip", sum, want)
	}
}

// TestSubtractWindowSemantics pins the delta-ring use case directly:
// merging W period deltas and subtracting the expiring one equals merging
// the remaining W-1, for every observable including adjacency order.
func TestSubtractWindowSemantics(t *testing.T) {
	r := rng.New(23)
	const n = 40
	deltas := make([]*Ledger, 5)
	for i := range deltas {
		deltas[i] = NewLedger(n)
		randomRecords(r, n, 300, deltas[i])
	}
	rolling := NewLedger(n)
	for _, d := range deltas {
		if err := rolling.Merge(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := rolling.Subtract(deltas[0]); err != nil {
		t.Fatal(err)
	}
	remerged := NewLedger(n)
	for _, d := range deltas[1:] {
		if err := remerged.Merge(d); err != nil {
			t.Fatal(err)
		}
	}
	rolling.ClearDirty()
	remerged.ClearDirty()
	requireLedgersEqual(t, "window eviction", rolling, remerged)
}

func TestSubtractSizeMismatch(t *testing.T) {
	l := NewLedger(4)
	if err := l.Subtract(NewLedger(5)); err == nil {
		t.Fatal("size mismatch not reported")
	}
}

func TestSubtractUnderflowPanics(t *testing.T) {
	l := NewLedger(4)
	l.Record(1, 0, 1)
	big := NewLedger(4)
	big.Record(1, 0, 1)
	big.Record(1, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pair-count underflow not caught")
			}
		}()
		_ = l.Subtract(big)
	}()

	l2 := NewLedger(4)
	l2.Record(1, 0, 1)
	other := NewLedger(4)
	other.Record(2, 0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("absent-rater subtraction not caught")
			}
		}()
		_ = l2.Subtract(other)
	}()
}
