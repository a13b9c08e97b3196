package reputation

import (
	"math"
	"runtime"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/rng"
)

// randomTrustLedger builds a ledger with a mix of positive and negative
// ratings, including rows with no positive experience (pretrust fallback)
// and zero-score nodes.
func randomTrustLedger(seed uint64, n, ratings int) *Ledger {
	r := rng.New(seed).Child("eigentrust-parallel")
	l := NewLedger(n)
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
	return l
}

// TestEigenTrustWorkersBitIdentical pins the determinism claim: the
// column-partitioned parallel build and power iteration return
// bit-identical scores, the same iteration count, and the same metered
// cost as the sequential path (Workers: 1), for every worker count —
// including the auto-sized fan-out (Workers: 0), which the last ledger is
// large enough to engage.
func TestEigenTrustWorkersBitIdentical(t *testing.T) {
	atLeastProcs(t, 4)
	var ledgers []*Ledger
	for _, n := range []int{1, 7, 50, 128} {
		ledgers = append(ledgers, randomTrustLedger(uint64(n), n, n*20))
	}
	ledgers = append(ledgers, aboveGrainLedger(1))
	for _, l := range ledgers {
		n := l.Size()
		var seqMeter metrics.CostMeter
		seq := NewEigenTrust([]int{0, 1, 2})
		seq.Workers = 1
		seq.Meter = &seqMeter
		want := seq.Scores(l)
		wantIters := seq.Iterations()

		for _, workers := range []int{0, 2, 3, 4, 16, 100} {
			var meter metrics.CostMeter
			par := NewEigenTrust([]int{0, 1, 2})
			par.Workers = workers
			par.Meter = &meter
			got := par.Scores(l)
			if par.Iterations() != wantIters {
				t.Fatalf("n=%d workers=%d: %d iterations, sequential did %d",
					n, workers, par.Iterations(), wantIters)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d workers=%d: score[%d] = %v, sequential %v (must be bit-identical)",
						n, workers, j, got[j], want[j])
				}
			}
			if got, want := meter.Total(), seqMeter.Total(); got != want {
				t.Fatalf("n=%d workers=%d: metered cost %d, sequential %d", n, workers, got, want)
			}
		}
	}
}

// TestEigenTrustAutoFanout pins how Workers resolves into a goroutine
// count: 0 takes GOMAXPROCS capped at one worker per etGrain of columns
// plus pairs, 1 and negative values run sequentially, and no count
// exceeds one worker per column.
func TestEigenTrustAutoFanout(t *testing.T) {
	atLeastProcs(t, 4)
	procs := runtime.GOMAXPROCS(0)

	// A complete paper-scale network: every ordered pair rated.
	const paper = 200
	full := NewLedger(paper)
	for i := 0; i < paper; i++ {
		for j := 0; j < paper; j++ {
			if i != j {
				full.Record(i, j, 1)
			}
		}
	}
	big := aboveGrainLedger(2)
	bigWork := big.Size() + big.pairCount(0, big.Size())
	cases := []struct {
		name    string
		workers int
		l       *Ledger
		want    int
	}{
		{"auto/paper-scale", 0, full, 1},
		{"auto/above-grain", 0, big, min(procs, bigWork/etGrain)},
		{"sequential", 1, big, 1},
		{"negative", -3, big, 1},
		{"fixed", 3, big, 3},
		{"fixed/capped-at-columns", 100, NewLedger(7), 7},
	}
	for _, c := range cases {
		e := &EigenTrust{Workers: c.workers}
		if got := e.fanout(c.l); got != c.want {
			t.Errorf("%s: fanout = %d, want %d", c.name, got, c.want)
		}
	}
	if bigWork/etGrain < 2 {
		t.Fatalf("above-grain ledger has %d units of work, want >= %d", bigWork, 2*etGrain)
	}

	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	if got := (&EigenTrust{}).fanout(big); got != 1 {
		t.Errorf("auto at GOMAXPROCS=1: fanout = %d, want 1", got)
	}
}

func TestEigenTrustWorkersStillADistribution(t *testing.T) {
	l := randomTrustLedger(9, 40, 800)
	e := NewEigenTrust([]int{0})
	e.Workers = 8
	if err := CheckDistribution(e.Scores(l), 1e-9); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEigenTrustScores200(b *testing.B) {
	l := randomTrustLedger(1, 200, 200*60)
	e := NewEigenTrust([]int{0, 1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}

func BenchmarkEigenTrustScores200Workers(b *testing.B) {
	l := randomTrustLedger(1, 200, 200*60)
	e := NewEigenTrust([]int{0, 1, 2})
	e.Workers = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}
