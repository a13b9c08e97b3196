package ingest

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/reputation"
)

// WindowedLedger is the reference sliding window that
// TestWindowLedgerMatchesBruteForce checks WindowLedger against and that
// BenchmarkWindowRolloverRemerge times. It keeps one ledger per period and
// re-merges every period of the ring each time the window is read, paying
// O(window · nnz) per read. The paper's detection statistics are all
// defined over "the time period T for updating global reputations"
// (Table I); a windowed ledger gives the literal sliding-window semantics:
// ratings older than the window no longer count toward N_i, N_(i,j) or the
// summation reputation, so a pair that stops colluding eventually stops
// matching the collusion model.
type WindowedLedger struct {
	n       int
	window  int
	periods []*reputation.Ledger // ring buffer; periods[head] is the current period
	head    int
	filled  int
}

// NewWindowedLedger creates a windowed ledger for n nodes keeping the
// current period plus window-1 past periods. It panics if n <= 0 or
// window <= 0, mirroring reputation.NewLedger.
func NewWindowedLedger(n, window int) *WindowedLedger {
	if n <= 0 {
		panic(fmt.Sprintf("ingest: NewWindowedLedger(n=%d), want n > 0", n))
	}
	if window <= 0 {
		panic(fmt.Sprintf("ingest: NewWindowedLedger(window=%d), want window > 0", window))
	}
	w := &WindowedLedger{n: n, window: window, periods: make([]*reputation.Ledger, window)}
	w.periods[0] = reputation.NewLedger(n)
	w.filled = 1
	return w
}

// Size returns the node population.
func (w *WindowedLedger) Size() int { return w.n }

// WindowLength returns the number of periods the window spans.
func (w *WindowedLedger) WindowLength() int { return w.window }

// Periods returns how many periods currently hold data (1..window).
func (w *WindowedLedger) Periods() int { return w.filled }

// Record stores a rating in the current period.
func (w *WindowedLedger) Record(rater, target, polarity int) {
	w.periods[w.head].Record(rater, target, polarity)
}

// Advance closes the current period and opens a new one, evicting the
// oldest period once the window is full.
func (w *WindowedLedger) Advance() {
	w.head = (w.head + 1) % w.window
	if w.periods[w.head] == nil {
		w.periods[w.head] = reputation.NewLedger(w.n)
		w.filled++
		return
	}
	// Reuse the evicted period's storage.
	w.periods[w.head].Reset()
}

// Current returns the ledger of the open period (live view, not a copy).
func (w *WindowedLedger) Current() *reputation.Ledger { return w.periods[w.head] }

// Window returns a merged ledger over every period in the window. The
// result is a fresh copy safe to retain.
func (w *WindowedLedger) Window() *reputation.Ledger {
	merged := reputation.NewLedger(w.n)
	for _, p := range w.periods {
		if p == nil {
			continue
		}
		// Merge cannot fail: all periods share the population size.
		if err := merged.Merge(p); err != nil {
			panic("ingest: " + err.Error())
		}
	}
	return merged
}

// Reset clears every period.
func (w *WindowedLedger) Reset() {
	for _, p := range w.periods {
		if p != nil {
			p.Reset()
		}
	}
}

func TestWindowedLedgerPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewWindowedLedger(0, 3) },
		func() { NewWindowedLedger(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestWindowedLedgerBasics(t *testing.T) {
	w := NewWindowedLedger(4, 3)
	if w.Size() != 4 || w.WindowLength() != 3 || w.Periods() != 1 {
		t.Fatalf("fresh ledger: size=%d window=%d periods=%d", w.Size(), w.WindowLength(), w.Periods())
	}
	w.Record(0, 1, 1)
	if got := w.Window().TotalFor(1); got != 1 {
		t.Fatalf("window total = %d, want 1", got)
	}
	if got := w.Current().TotalFor(1); got != 1 {
		t.Fatalf("current total = %d, want 1", got)
	}
}

func TestWindowedLedgerEviction(t *testing.T) {
	w := NewWindowedLedger(4, 2) // current + 1 past period
	w.Record(0, 1, 1)            // period 1
	w.Advance()
	w.Record(2, 1, 1) // period 2
	if got := w.Window().TotalFor(1); got != 2 {
		t.Fatalf("window holds %d ratings, want 2 (both periods in window)", got)
	}
	w.Advance() // period 3: period 1 evicted
	if got := w.Window().TotalFor(1); got != 1 {
		t.Fatalf("window holds %d ratings, want 1 after eviction", got)
	}
	if got := w.Window().PairTotal(1, 0); got != 0 {
		t.Fatalf("evicted pair count = %d, want 0", got)
	}
	if got := w.Window().PairTotal(1, 2); got != 1 {
		t.Fatalf("retained pair count = %d, want 1", got)
	}
	w.Advance() // period 4: period 2 evicted too
	if got := w.Window().TotalFor(1); got != 0 {
		t.Fatalf("window holds %d ratings, want 0", got)
	}
}

func TestWindowedLedgerPeriodsCap(t *testing.T) {
	w := NewWindowedLedger(3, 3)
	for i := 0; i < 10; i++ {
		w.Advance()
	}
	if w.Periods() != 3 {
		t.Fatalf("periods = %d, want capped at 3", w.Periods())
	}
}

func TestWindowedLedgerReset(t *testing.T) {
	w := NewWindowedLedger(3, 2)
	w.Record(0, 1, 1)
	w.Advance()
	w.Record(2, 1, -1)
	w.Reset()
	if got := w.Window().TotalFor(1); got != 0 {
		t.Fatalf("after Reset window total = %d", got)
	}
}

func TestWindowedLedgerIsCopy(t *testing.T) {
	w := NewWindowedLedger(3, 2)
	w.Record(0, 1, 1)
	snapshot := w.Window()
	w.Record(2, 1, 1)
	if snapshot.TotalFor(1) != 1 {
		t.Fatal("Window() snapshot mutated by later recording")
	}
}

// Property: with a window of W periods, the merged view always equals the
// sum of the last W periods' recordings exactly.
func TestQuickWindowMatchesManualSum(t *testing.T) {
	f := func(events []uint16, advances uint8) bool {
		const n, window = 5, 3
		w := NewWindowedLedger(n, window)
		// Manual shadow: slice of per-period ledgers.
		var shadow []*reputation.Ledger
		shadow = append(shadow, reputation.NewLedger(n))
		step := 0
		for _, e := range events {
			if int(advances) > 0 && step%(int(advances)+1) == int(advances) {
				w.Advance()
				shadow = append(shadow, reputation.NewLedger(n))
			}
			step++
			rater := int(e) % n
			target := int(e>>3) % n
			if rater == target {
				continue
			}
			pol := int(e>>6)%3 - 1
			w.Record(rater, target, pol)
			shadow[len(shadow)-1].Record(rater, target, pol)
		}
		want := reputation.NewLedger(n)
		lo := len(shadow) - window
		if lo < 0 {
			lo = 0
		}
		for _, p := range shadow[lo:] {
			if err := want.Merge(p); err != nil {
				return false
			}
		}
		got := w.Window()
		for target := 0; target < n; target++ {
			if got.TotalFor(target) != want.TotalFor(target) ||
				got.SummationScore(target) != want.SummationScore(target) {
				return false
			}
			for rater := 0; rater < n; rater++ {
				if got.PairTotal(target, rater) != want.PairTotal(target, rater) ||
					got.PairPositive(target, rater) != want.PairPositive(target, rater) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
