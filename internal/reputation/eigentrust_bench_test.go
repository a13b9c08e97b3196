package reputation

import "testing"

// Cached benchmark ledgers: building the 100k/1M-node networks costs more
// than the benchmarked operations, so they are constructed once per
// process and shared (benchmarks run sequentially; EigenTrust never
// mutates the ledger).
var (
	etBench100k *Ledger
	etBench1M   *Ledger
)

// eigenBenchLedger100k is a 100k-node network with ~2M mixed-polarity
// ratings — the sparse regime the detectors' Sparse100k benchmarks use.
func eigenBenchLedger100k() *Ledger {
	if etBench100k == nil {
		etBench100k = randomTrustLedger(100, 100_000, 2_000_000)
	}
	return etBench100k
}

// eigenBenchLedger1M is the million-node smoke topology: ~1.9M positive
// edges, every 17th node dangling.
func eigenBenchLedger1M() *Ledger {
	if etBench1M == nil {
		const n = 1_000_000
		l := NewLedger(n)
		for i := 0; i < n; i++ {
			if i%17 == 0 {
				continue
			}
			l.Record(i, (i+1)%n, 1)
			if j := (i*7 + 3) % n; j != i {
				l.Record(i, j, 1)
			}
		}
		etBench1M = l
	}
	return etBench1M
}

// BenchmarkEigenTrustBuildSparse100k measures the O(n + nnz) matrix build
// straight from the ledger's CSR views, with the engine-owned scratch
// reused across calls (steady-state allocations stay flat).
func BenchmarkEigenTrustBuildSparse100k(b *testing.B) {
	l := eigenBenchLedger100k()
	e := NewEigenTrust([]int{0, 1, 2})
	e.build(l, l.Size(), 1) // warm the engine-owned scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.build(l, l.Size(), 1)
	}
}

// BenchmarkEigenTrustMultiplySparse100k measures one power-iteration
// multiply over the sparse matrix — the //colsim:hotpath kernel, O(nnz +
// d·n) and allocation-free.
func BenchmarkEigenTrustMultiplySparse100k(b *testing.B) {
	l := eigenBenchLedger100k()
	n := l.Size()
	e := NewEigenTrust([]int{0, 1, 2})
	e.p = floatSlice(e.p, n)
	e.pretrustInto(e.p)
	e.build(l, n, 1)
	t := make([]float64, n)
	copy(t, e.p)
	next := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.multiply(t, next, DefaultAlpha, 1)
	}
}

// BenchmarkEigenTrustScoresSparse100k is the full engine at n=100k:
// build + damped power iteration at the simulator's convergence tolerance,
// with the auto-sized fan-out (Workers: 0) the simulator and service use.
func BenchmarkEigenTrustScoresSparse100k(b *testing.B) {
	benchScores100k(b, 0)
}

// BenchmarkEigenTrustScoresSparse100kSequential is the same call pinned
// to the sequential path (Workers: 1), so the baseline gates the kernel's
// cost separately from the fan-out's gain.
func BenchmarkEigenTrustScoresSparse100kSequential(b *testing.B) {
	benchScores100k(b, 1)
}

func benchScores100k(b *testing.B, workers int) {
	l := eigenBenchLedger100k()
	e := NewEigenTrust([]int{0, 1, 2})
	e.Epsilon = 1e-4
	e.Workers = workers
	e.Scores(l) // warm the engine-owned scratch: steady state is the contract
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}

// BenchmarkEigenTrustScoresSparse1M demonstrates the new scale ceiling:
// million-node EigenTrust in container memory. The dense trust matrix
// alone would need ~8 TB; the sparse engine holds O(n + nnz).
func BenchmarkEigenTrustScoresSparse1M(b *testing.B) {
	l := eigenBenchLedger1M()
	e := NewEigenTrust([]int{0, 1, 2})
	e.Epsilon = 1e-4
	e.MaxIter = 12
	e.Scores(l) // warm the engine-owned scratch: steady state is the contract
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}
