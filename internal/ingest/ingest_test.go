package ingest

import (
	"testing"

	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/trace"
)

// requireLedgersEqual asserts every observable of got matches want:
// population, per-target adjacency with aligned counts, receive and sent
// totals, and (when checkDirty) the sorted dirty-target set.
func requireLedgersEqual(t *testing.T, step string, got, want *reputation.Ledger, checkDirty bool) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: Size = %d, want %d", step, got.Size(), want.Size())
	}
	for target := 0; target < want.Size(); target++ {
		gp, wp := got.PairCountsOf(target), want.PairCountsOf(target)
		if len(gp.Raters) != len(wp.Raters) {
			t.Fatalf("%s: target %d has raters %v, want %v", step, target, gp.Raters, wp.Raters)
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
			got.SummationScore(target) != want.SummationScore(target) ||
			got.OutgoingTotal(target) != want.OutgoingTotal(target) {
			t.Fatalf("%s: target %d totals differ", step, target)
		}
	}
	if !checkDirty {
		return
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

// TestReplayTrace checks the trace bridge: score-to-polarity conversion,
// self-rating removal and population sizing, replaying the batch into a
// ledger the way epoch intake does, one Record per rating.
func TestReplayTrace(t *testing.T) {
	tr := &trace.Trace{Ratings: []trace.Rating{
		{Day: 1, Rater: 0, Target: 3, Score: 5},
		{Day: 2, Rater: 3, Target: 0, Score: 1},
		{Day: 3, Rater: 2, Target: 3, Score: 3},
		{Day: 4, Rater: 1, Target: 1, Score: 4}, // self-rating: dropped
		{Day: 5, Rater: 4, Target: 2, Score: 4},
	}}
	if got := Population(tr); got != 5 {
		t.Fatalf("Population = %d, want 5", got)
	}
	want := reputation.NewLedger(5)
	want.Record(0, 3, 1)
	want.Record(3, 0, -1)
	want.Record(2, 3, 0)
	want.Record(4, 2, 1)
	got := reputation.NewLedger(Population(tr))
	for _, r := range FromTrace(tr) {
		got.Record(int(r.Rater), int(r.Target), int(r.Polarity))
	}
	requireLedgersEqual(t, "trace replay", got, want, true)
}
