package core

import (
	"reflect"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// evolveLedger mutates l with one cycle's worth of activity: background
// organic ratings plus, occasionally, a fresh mutual flood that creates or
// reinforces a colluding pair — so across cycles the dirty set varies from
// a few rows to most of the population.
func evolveLedger(r *rng.Rand, l *reputation.Ledger, n int) {
	ratings := r.IntRange(1, n*2)
	for k := 0; k < ratings; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		pol := 1
		if r.Bool(0.3) {
			pol = -1
		}
		l.Record(i, j, pol)
	}
	if r.Bool(0.4) {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			flood := r.IntRange(10, 30)
			for k := 0; k < flood; k++ {
				l.Record(a, b, 1)
				l.Record(b, a, 1)
			}
		}
	}
}

// TestIncrementalDetectionMatchesFull is the incremental path's contract:
// across a 60-trial sweep of evolving ledgers, every DetectIncremental
// cycle must flag the identical pairs AND charge the identical per-counter
// meter readings as a from-scratch Detect over the same ledger state.
func TestIncrementalDetectionMatchesFull(t *testing.T) {
	r := rng.New(77).Child("incremental-equivalence")
	for trial := 0; trial < 60; trial++ {
		n := r.IntRange(4, 40)
		th := Thresholds{
			TR: float64(r.IntRange(0, 3)),
			TN: r.IntRange(1, 25),
			Ta: 0.5 + 0.5*r.Float64(),
			Tb: r.Float64(),
		}
		if r.Bool(0.25) {
			th.StrictReverse = true
		}

		l := reputation.NewLedger(n)
		incB := NewBasic(th)
		incB.Meter = new(metrics.CostMeter)
		incO := NewOptimized(th)
		incO.Meter = new(metrics.CostMeter)

		cycles := r.IntRange(3, 8)
		prevB := incB.Meter.Snapshot()
		prevO := incO.Meter.Snapshot()
		for cycle := 0; cycle < cycles; cycle++ {
			evolveLedger(r, l, n)
			dirty := l.DirtyTargets()

			fullB := NewBasic(th)
			fullB.Meter = new(metrics.CostMeter)
			wantB := fullB.Detect(l)
			gotB := incB.DetectIncremental(l, dirty)
			compareResults(t, tag("basic", trial, cycle), gotB, wantB)
			prevB = compareMeterDelta(t, tag("basic", trial, cycle), incB.Meter, prevB, fullB.Meter)

			fullO := NewOptimized(th)
			fullO.Meter = new(metrics.CostMeter)
			wantO := fullO.Detect(l)
			gotO := incO.DetectIncremental(l, dirty)
			compareResults(t, tag("optimized", trial, cycle), gotO, wantO)
			prevO = compareMeterDelta(t, tag("optimized", trial, cycle), incO.Meter, prevO, fullO.Meter)

			l.ClearDirty()
		}
	}
}

// compareMeterDelta checks that the incremental detector's meter advanced
// this cycle by exactly the counts a from-scratch pass charged, and
// returns the new snapshot for the next cycle. A cached replay that
// dropped or double-charged any counter would change Figure 13's cost
// curves — exact equality is the requirement.
func compareMeterDelta(t *testing.T, tag string, inc *metrics.CostMeter, prev map[string]int64, full *metrics.CostMeter) map[string]int64 {
	t.Helper()
	cur := inc.Snapshot()
	want := full.Snapshot()
	for name, w := range want {
		if got := cur[name] - prev[name]; got != w {
			t.Fatalf("%s: incremental charged %d %s this cycle, full pass %d", tag, got, name, w)
		}
	}
	for name := range cur {
		if _, ok := want[name]; !ok && cur[name] != prev[name] {
			t.Fatalf("%s: incremental charged unexpected counter %s (+%d)", tag, name, cur[name]-prev[name])
		}
	}
	return cur
}

// TestIncrementalResetsOnLedgerSwap pins the state-invalidation rule:
// handing the detector a different Ledger value (a new run, a windowed
// merge) must discard every memoized screen, even with an empty dirty set.
func TestIncrementalResetsOnLedgerSwap(t *testing.T) {
	th := DefaultThresholds()
	th.TR = 0
	r := rng.New(5).Child("ledger-swap")

	a := reputation.NewLedger(12)
	evolveLedger(r, a, 12)
	for k := 0; k < 25; k++ {
		a.Record(1, 2, 1)
		a.Record(2, 1, 1)
	}
	b := reputation.NewLedger(12)
	evolveLedger(r, b, 12)
	for k := 0; k < 25; k++ {
		b.Record(3, 4, 1)
		b.Record(4, 3, 1)
	}

	for _, det := range []IncrementalDetector{NewBasic(th), NewOptimized(th)} {
		resA := det.DetectIncremental(a, a.DirtyTargets())
		if !resA.HasPair(1, 2) {
			t.Fatalf("%s: planted pair (1,2) not flagged on ledger a", det.Name())
		}
		// No dirty rows reported for b: only the ledger identity signals
		// the swap.
		resB := det.DetectIncremental(b, nil)
		full := NewOptimized(th)
		if det.Name() == "unoptimized" {
			resWant := NewBasic(th).Detect(b)
			compareResults(t, det.Name()+" after swap", resB, resWant)
			continue
		}
		compareResults(t, det.Name()+" after swap", resB, full.Detect(b))
	}
}

// TestIncrementalSteadyStateAllocs pins the scratch-buffer reuse: once the
// detector has warmed up on a ledger, re-detecting with no changes must
// not allocate (the per-cycle Detect used to rebuild candidate, bitmap,
// dedup-map and queue storage every period).
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	th := DefaultThresholds()
	th.TR = 0
	r := rng.New(9).Child("steady-allocs")
	l := reputation.NewLedger(64)
	evolveLedger(r, l, 64)
	for k := 0; k < 30; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 1, 1)
	}

	for _, det := range []IncrementalDetector{NewBasic(th), NewOptimized(th)} {
		for warm := 0; warm < 2; warm++ {
			det.DetectIncremental(l, l.DirtyTargets())
			l.ClearDirty()
		}
		allocs := testing.AllocsPerRun(50, func() {
			res := det.DetectIncremental(l, nil)
			if !res.HasPair(1, 2) {
				t.Fatal("planted pair lost")
			}
		})
		if allocs > 0 {
			t.Fatalf("%s: steady-state DetectIncremental allocates %v objects/op, want 0", det.Name(), allocs)
		}
	}
}

func tag(det string, trial, cycle int) string {
	return det + " trial " + itoa(trial) + " cycle " + itoa(cycle)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// incState returns an incremental detector's memoization state.
func incState(det IncrementalDetector) *detectState {
	switch d := det.(type) {
	case *Basic:
		return d.inc
	case *Optimized:
		return d.inc
	}
	return nil
}

// liveFrequentPairs counts, by brute force, the pairs i < x a pass
// examines past its frequency gate: both nodes candidates and
// N_(i,x) >= T_N.
func liveFrequentPairs(l *reputation.Ledger, th Thresholds) int {
	count := 0
	for i := 0; i < l.Size(); i++ {
		for x := i + 1; x < l.Size(); x++ {
			if float64(l.SummationScore(i)) >= th.TR && float64(l.SummationScore(x)) >= th.TR &&
				l.PairTotal(i, x) >= th.TN {
				count++
			}
		}
	}
	return count
}

// TestIncrementalMemoTracksLiveFrequentPairs pins the memo bound: over a
// sliding window whose colluding floods expire, every pass leaves exactly
// one memo entry per live frequent high pair, so the memo shrinks back to
// empty once the floods leave the window instead of keeping a dead entry
// for every pair it ever screened.
func TestIncrementalMemoTracksLiveFrequentPairs(t *testing.T) {
	const n, window, floodCycles = 48, 3, 4
	th := DefaultThresholds()
	th.TR = 0
	r := rng.New(21).Child("memo-bound")
	l := reputation.NewLedger(n)
	var ring []*reputation.Ledger
	dets := []IncrementalDetector{NewBasic(th), NewOptimized(th)}
	peak := 0
	for cycle := 0; cycle < floodCycles+window+3; cycle++ {
		delta := reputation.NewLedger(n)
		for k := 0; k < 2*n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			pol := 1
			if r.Bool(0.3) {
				pol = -1
			}
			delta.Record(i, j, pol)
		}
		if cycle < floodCycles {
			for p := 0; p < 3; p++ {
				a := 6*cycle + 2*p
				for k := 0; k < 25; k++ {
					delta.Record(a, a+1, 1)
					delta.Record(a+1, a, 1)
				}
			}
		}
		if err := l.Merge(delta); err != nil {
			t.Fatal(err)
		}
		ring = append(ring, delta)
		if len(ring) > window {
			if err := l.Subtract(ring[0]); err != nil {
				t.Fatal(err)
			}
			ring = ring[1:]
		}
		dirty := l.DirtyTargets()
		l.ClearDirty()
		live := liveFrequentPairs(l, th)
		if live > peak {
			peak = live
		}
		for _, det := range dets {
			det.DetectIncremental(l, dirty)
			if got := len(incState(det).memo); got != live {
				t.Fatalf("%s cycle %d: memo holds %d pairs, %d frequent high pairs are live", det.Name(), cycle, got, live)
			}
		}
	}
	if peak == 0 {
		t.Fatal("no frequent pair was ever live; the test would be vacuous")
	}
	for _, det := range dets {
		if st := incState(det); len(st.memo) != 0 || len(st.freqRows) != 0 {
			t.Fatalf("%s: after the floods expired the memo holds %d pairs and %d rows are frequent, want 0 and 0",
				det.Name(), len(st.memo), len(st.freqRows))
		}
	}
}

// fuzzBytes decodes a fuzz input one byte at a time, reading zeros once
// it runs out.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) more() bool { return b.pos < len(b.data) }

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// record decodes one rating run into l: a rater-target pair, a polarity,
// a repeat count of up to 24 (so a run can cross T_N) and whether the
// target rates the rater back as often.
func (b *fuzzBytes) record(l *reputation.Ledger) {
	n := l.Size()
	i, j := b.next()%n, b.next()%n
	pol, count, mutual := b.next()%3-1, 1+b.next()%24, b.next()%2 == 0
	if i == j {
		return
	}
	for k := 0; k < count; k++ {
		l.Record(i, j, pol)
		if mutual {
			l.Record(j, i, pol)
		}
	}
}

// FuzzIncrementalDetect drives both detectors' DetectIncremental through a
// decoded sequence of Record, Merge and Subtract steps on one ledger and
// checks every pass against a fresh detector's Detect: pairs, flags and
// the exact per-counter meter charges, including which counters a pass
// registers. Subtract, of a delta from a small ring of merged ones, is
// what pushes a pair back below T_N and a row out of the frequent list.
func FuzzIncrementalDetect(f *testing.F) {
	f.Add([]byte{20, 1, 7, 3, 2, 1,
		1, 1, 2, 3, 2, 15, 0, 5, 9, 2, 20, 0,
		0, 7, 8, 0, 3, 1,
		2, 0,
		1, 0, 2, 3, 2, 9, 0,
		0, 3, 2, 2, 12, 0,
		2, 1, 2, 0})
	f.Add([]byte{8, 0, 1, 0, 10, 4, 0, 1, 2, 1, 0, 1, 1, 0, 3, 2, 2, 2, 0, 0, 2, 0, 2, 0})
	f.Add([]byte{30, 2, 11, 5, 0, 0, 1, 2, 4, 5, 2, 23, 0, 6, 7, 2, 23, 0, 4, 6, 2, 23, 0, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		n := 4 + in.next()%29
		th := Thresholds{
			TR:            float64(in.next() % 4),
			TN:            1 + in.next()%12,
			Ta:            0.5 + float64(in.next()%6)/10,
			Tb:            float64(in.next()%11) / 10,
			StrictReverse: in.next()%4 == 0,
		}
		l := reputation.NewLedger(n)
		incB, incO := NewBasic(th), NewOptimized(th)
		var ring []*reputation.Ledger
		for step := 0; step < 64 && in.more(); step++ {
			switch in.next() % 3 {
			case 0:
				in.record(l)
			case 1:
				d := reputation.NewLedger(n)
				for k := 1 + in.next()%3; k > 0; k-- {
					in.record(d)
				}
				if err := l.Merge(d); err != nil {
					t.Fatal(err)
				}
				if len(ring) == 4 {
					ring = ring[1:] // forgotten, so its counts stay merged
				}
				ring = append(ring, d)
			case 2:
				if len(ring) == 0 {
					continue
				}
				k := in.next() % len(ring)
				if err := l.Subtract(ring[k]); err != nil {
					t.Fatal(err)
				}
				ring = append(ring[:k], ring[k+1:]...)
			}
			dirty := l.DirtyTargets()
			l.ClearDirty()

			incB.Meter, incO.Meter = new(metrics.CostMeter), new(metrics.CostMeter)
			fullB, fullO := NewBasic(th), NewOptimized(th)
			fullB.Meter, fullO.Meter = new(metrics.CostMeter), new(metrics.CostMeter)
			compareResults(t, "basic step "+itoa(step), incB.DetectIncremental(l, dirty), fullB.Detect(l))
			compareResults(t, "optimized step "+itoa(step), incO.DetectIncremental(l, dirty), fullO.Detect(l))
			if got, want := incB.Meter.Snapshot(), fullB.Meter.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("basic step %d: incremental charged %v, full pass %v", step, got, want)
			}
			if got, want := incO.Meter.Snapshot(), fullO.Meter.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("optimized step %d: incremental charged %v, full pass %v", step, got, want)
			}
		}
	})
}
