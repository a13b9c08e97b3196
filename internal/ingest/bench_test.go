package ingest

import (
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/rng"
)

// The window benchmarks drive cycles of ratings through a
// window-maintenance strategy: record a cycle's ratings, close the
// cycle, read the merged window twice (once for scoring, once for
// detection — the simulator's access pattern). The workload models the
// bursty-stream regime the window exists for: each cycle touches a small
// fraction of the population, so the ring holds much more history than
// any one cycle changes.
const (
	windowBenchNodes  = 20_000
	windowBenchLength = 20
	windowBenchCycles = 50
	windowBenchRate   = 2_000 // ratings per cycle
)

// BenchmarkWindowRolloverIncremental measures the delta-ring WindowLedger:
// each cycle costs one merge of the new delta plus one subtraction of the
// expiring one, regardless of window length.
func BenchmarkWindowRolloverIncremental(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(7)
		w := NewWindowLedger(windowBenchNodes, windowBenchLength)
		sink := 0
		for c := 0; c < windowBenchCycles; c++ {
			for k := 0; k < windowBenchRate; k++ {
				rater, target := r.Intn(windowBenchNodes), r.Intn(windowBenchNodes)
				if rater == target {
					continue
				}
				w.Record(rater, target, 1)
			}
			w.Roll()
			sink += w.Window().TotalFor(0)
			sink += w.Window().TotalFor(1)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
}

// The windowed-detection benchmarks measure the closed streaming loop:
// each cycle records ratings touching ~1% of the population, seals the
// cycle with Roll, and runs pairwise detection over the merged window —
// incrementally (candidate upkeep and screens driven by Roll's dirty
// set) or from scratch (every row re-scored, every high pair
// re-screened). The gap between the two is the per-cycle price the
// incremental path removes.
const (
	wdBenchNodes   = 10_000
	wdBenchWindow  = 20
	wdBenchPerCyc  = 100 // ~1% of rows dirtied per cycle
	wdBenchColludA = 17
	wdBenchColludB = 18
)

// wdBenchCycle records one cycle's ratings (background traffic plus a
// persistently hot colluding pair, so detection always has real work)
// and seals it, returning Roll's dirty set.
func wdBenchCycle(r *rng.Rand, win *WindowLedger) []int {
	for k := 0; k < wdBenchPerCyc; k++ {
		rater, target := r.Intn(wdBenchNodes), r.Intn(wdBenchNodes)
		if rater == target {
			continue
		}
		pol := 1
		if r.Bool(0.2) {
			pol = -1
		}
		win.Record(rater, target, pol)
	}
	for k := 0; k < 3; k++ {
		win.Record(wdBenchColludA, wdBenchColludB, 1)
		win.Record(wdBenchColludB, wdBenchColludA, 1)
	}
	return win.Roll()
}

// BenchmarkWindowedIncrementalDetect is the O(dirty) per-cycle path the
// simulator's windowed runs take.
func BenchmarkWindowedIncrementalDetect(b *testing.B) {
	r := rng.New(13)
	win := NewWindowLedger(wdBenchNodes, wdBenchWindow)
	det := core.NewOptimized(core.DefaultThresholds())
	for c := 0; c < wdBenchWindow; c++ {
		det.DetectIncremental(win.Window(), wdBenchCycle(r, win))
	}
	b.ReportAllocs()
	b.ResetTimer()
	// The hot pair is usually but not always flagged (background raters
	// intermittently corroborate it within the window), so sink the pair
	// count instead of asserting.
	sink := 0
	for i := 0; i < b.N; i++ {
		res := det.DetectIncremental(win.Window(), wdBenchCycle(r, win))
		sink += len(res.Pairs)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWindowedFullDetect is the from-scratch baseline over the same
// stream (what an epoch runs when its detector is not incremental).
func BenchmarkWindowedFullDetect(b *testing.B) {
	r := rng.New(13)
	win := NewWindowLedger(wdBenchNodes, wdBenchWindow)
	det := core.NewOptimized(core.DefaultThresholds())
	for c := 0; c < wdBenchWindow; c++ {
		wdBenchCycle(r, win)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		wdBenchCycle(r, win)
		res := det.Detect(win.Window())
		sink += len(res.Pairs)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWindowRolloverRemerge is the baseline: the reference
// WindowedLedger re-merges every period of the ring each time the window
// is read, paying O(window · nnz) per cycle.
func BenchmarkWindowRolloverRemerge(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(7)
		w := NewWindowedLedger(windowBenchNodes, windowBenchLength)
		sink := 0
		for c := 0; c < windowBenchCycles; c++ {
			for k := 0; k < windowBenchRate; k++ {
				rater, target := r.Intn(windowBenchNodes), r.Intn(windowBenchNodes)
				if rater == target {
					continue
				}
				w.Record(rater, target, 1)
			}
			sink += w.Window().TotalFor(0)
			sink += w.Window().TotalFor(1)
			w.Advance()
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
}
