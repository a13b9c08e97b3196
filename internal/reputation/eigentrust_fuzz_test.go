package reputation

import (
	"math"
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// FuzzEigenTrustSparse drives the sparse engine against the preserved
// dense reference on fuzzer-chosen networks: arbitrary sizes, densities,
// polarities, pretrust sets (in-range, out-of-range, duplicated, empty)
// and worker counts, including the auto-sized fan-out (Workers: 0).
// Scores must be bit-identical and iteration counts equal — the same
// contract the randomized equivalence test pins, explored adversarially.
// With big set, the network is scaled up past the fan-out grain (a few
// hundred nodes, up to ~130k ratings) so that the auto-sized path fans
// out whenever the ratings leave enough distinct pairs.
func FuzzEigenTrustSparse(f *testing.F) {
	atLeastProcs(f, 4)
	f.Add(uint64(1), uint8(10), uint16(80), int8(0), int8(1), uint8(0), false)
	f.Add(uint64(7), uint8(1), uint16(0), int8(-1), int8(5), uint8(1), false)
	f.Add(uint64(42), uint8(63), uint16(500), int8(3), int8(3), uint8(2), false)
	f.Add(uint64(99), uint8(30), uint16(40), int8(120), int8(-8), uint8(3), false)
	f.Add(uint64(5), uint8(200), uint16(511), int8(0), int8(0), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, ratings uint16, pre1, pre2 int8, workersRaw uint8, big bool) {
		n, m := 1+int(nRaw)%64, int(ratings)%512
		if big {
			n, m = 256+int(nRaw), 256*(1+m)
		}
		r := rng.New(seed).Child("fuzz-eigentrust")
		l := NewLedger(n)
		for k := 0; k < m; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if i == j {
				continue
			}
			pol := 1
			if r.Bool(0.4) {
				pol = -1
			}
			l.Record(i, j, pol)
		}
		pre := []int{int(pre1), int(pre2)}
		if pre1 == pre2 {
			pre = append(pre, int(pre1)) // triple duplicate
		}
		ref := &EigenTrust{Pretrusted: pre}
		want, wantIters := denseEigenTrustScores(ref, l)

		workers := equivalenceWorkerCounts[int(workersRaw)%len(equivalenceWorkerCounts)]
		e := &EigenTrust{Pretrusted: pre, Workers: workers}
		got := e.Scores(l)
		if e.Iterations() != wantIters {
			t.Fatalf("n=%d workers=%d: %d iterations, dense reference did %d",
				n, workers, e.Iterations(), wantIters)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("n=%d workers=%d: score[%d] = %v, dense reference %v (must be bit-identical)",
					n, workers, j, got[j], want[j])
			}
		}
		if err := CheckDistribution(got, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
}
