package ingest

import (
	"fmt"

	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// WindowLedger maintains a sliding window of rating periods as a ring of
// per-cycle CSR delta ledgers plus one incrementally-maintained merged
// view. Where a from-scratch window re-merges every period of the ring
// each time it is read — O(window · nnz) per cycle — WindowLedger pays
// only for what changed: sealing a cycle merges its delta into the window
// and, once the ring is full, subtracts the expiring delta
// (Ledger.Subtract is the exact inverse of Merge, so the merged view is
// observationally identical to a from-scratch re-merge; the property test
// pins this against the re-merging WindowedLedger of the package tests
// over a thousand cycles).
//
// Usage follows the simulation loop: Record a cycle's ratings (here or
// into Current), Roll once when the cycle closes, then read Window. The merged view is live and stable — the same *Ledger instance
// across cycles — and Roll reports exactly which of its rows the cycle
// changed (delta rows merged in plus rows the evicted period's
// subtraction touched), so windowed consumers drive incremental
// detection off Roll's returned dirty set exactly like cumulative ones
// drive it off Ledger.DirtyTargets.
type WindowLedger struct {
	n      int
	window int
	ring   []*reputation.Ledger // sealed period deltas, ring order
	head   int                  // ring slot the next sealed delta lands in
	filled int
	cur    *reputation.Ledger // the open period's delta
	merged *reputation.Ledger // incrementally-maintained window view

	deltaRows int // distinct targets in the most recently sealed delta

	// Obs, if non-nil, receives two per-Roll histograms:
	// window.delta_rows_per_cycle records how many target rows the sealed
	// delta touched, and window.dirty_rows_per_cycle records the size of
	// the cycle's full dirty set (delta rows plus rows the evicted
	// period's subtraction touched) — the row count incremental detection
	// actually rescreens. Atomic and order-independent, like all run-side
	// histogram recording. (The companion window.delta_rows gauge is set
	// post-run by the CLIs from the final cycle's value.)
	Obs *obs.Registry
	// Spans, if enabled, brackets every Roll in a "window.roll" span whose
	// payload (delta rows sealed, dirty rows reported) is a pure function
	// of the rating stream, keeping the span timeline byte-identical on
	// every replay.
	Spans *obs.SpanTracer
}

// NewWindowLedger creates a windowed ledger for n nodes spanning window
// periods (the open period plus window-1 sealed ones). It panics if
// n <= 0 or window <= 0, mirroring reputation.NewLedger.
func NewWindowLedger(n, window int) *WindowLedger {
	if n <= 0 {
		panic(fmt.Sprintf("ingest: NewWindowLedger(n=%d), want n > 0", n))
	}
	if window <= 0 {
		panic(fmt.Sprintf("ingest: NewWindowLedger(window=%d), want window > 0", window))
	}
	return &WindowLedger{
		n:      n,
		window: window,
		ring:   make([]*reputation.Ledger, window),
		cur:    reputation.NewLedger(n),
		merged: reputation.NewLedger(n),
	}
}

// Record stores one rating in the open period.
func (w *WindowLedger) Record(rater, target, polarity int) {
	w.cur.Record(rater, target, polarity)
}

// Current returns the open period's delta ledger — the ledger epoch
// intake records a batch into. Live view; sealed by the next Roll.
func (w *WindowLedger) Current() *reputation.Ledger { return w.cur }

// Roll seals the open period into the window: the expiring delta (if the
// ring is full) is subtracted from the merged view, the open delta is
// merged in and pushed onto the ring, and a fresh open period begins,
// reusing the evicted delta's storage. Cost is O(rows changed), not
// O(window · nnz).
//
// Roll returns the cycle's dirty set: every target row the merged window
// view changed this cycle — the rows the sealed delta merged in plus the
// rows the evicted delta's subtraction touched — ascending and
// deterministic (a pure function of the rating stream, never of
// scheduling). It is exactly the dirty argument
// core.IncrementalDetector.DetectIncremental requires for the merged
// window, and Roll consumes the merged ledger's dirty-set bookkeeping to
// produce it, so callers must not also call ClearDirty on Window().
func (w *WindowLedger) Roll() []int {
	if !w.Spans.Enabled() {
		return w.roll()
	}
	w.Spans.Begin("window.roll")
	dirty := w.roll()
	w.Spans.End("window.roll",
		obs.Int("delta_rows", w.deltaRows),
		obs.Int("dirty_rows", len(dirty)))
	return dirty
}

// roll is the span-free rollover shared by both entry paths.
func (w *WindowLedger) roll() []int {
	w.deltaRows = w.cur.DirtyCount()
	var spare *reputation.Ledger
	if w.filled == w.window {
		expiring := w.ring[w.head]
		// Subtract cannot fail: every ring delta shares the population.
		if err := w.merged.Subtract(expiring); err != nil {
			panic("ingest: " + err.Error())
		}
		spare = expiring
	}
	if err := w.merged.Merge(w.cur); err != nil {
		panic("ingest: " + err.Error())
	}
	w.ring[w.head] = w.cur
	w.head = (w.head + 1) % w.window
	if w.filled < w.window {
		w.filled++
	}
	if spare != nil {
		spare.Reset()
		spare.ClearDirty()
		w.cur = spare
	} else {
		w.cur = reputation.NewLedger(w.n)
	}
	dirty := w.merged.DirtyTargets()
	w.merged.ClearDirty()
	w.Obs.Histogram("window.delta_rows_per_cycle").Observe(int64(w.deltaRows))
	w.Obs.Histogram("window.dirty_rows_per_cycle").Observe(int64(len(dirty)))
	return dirty
}

// Window returns the merged ledger over every sealed period in the
// window. The view is live and instance-stable across cycles: mutations
// happen only inside Roll, which reports them as its returned dirty set
// (and advances the rows' generations), so callers may layer incremental
// detection on top. Callers must not mutate it — and must not ClearDirty
// it, since Roll owns that bookkeeping.
func (w *WindowLedger) Window() *reputation.Ledger { return w.merged }

// DeltaRows returns how many target rows the most recently sealed period
// touched — the window.delta_rows gauge the CLIs export after a run.
func (w *WindowLedger) DeltaRows() int { return w.deltaRows }
