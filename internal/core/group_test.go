package core

import (
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
)

// plantRing makes members flood each other in a directed ring
// (m0→m1→...→m0), the structure pairwise detection cannot see.
func plantRing(l *reputation.Ledger, members []int, ratings int) {
	for i, m := range members {
		next := members[(i+1)%len(members)]
		for k := 0; k < ratings; k++ {
			l.Record(m, next, 1)
		}
	}
}

// plantClique makes every member flood every other member.
func plantClique(l *reputation.Ledger, members []int, ratings int) {
	for _, a := range members {
		for _, b := range members {
			if a == b {
				continue
			}
			for k := 0; k < ratings; k++ {
				l.Record(a, b, 1)
			}
		}
	}
}

// addOutsideNegatives gives each member low ratings from the crowd (C2).
func addOutsideNegatives(l *reputation.Ledger, members []int, from, count int) {
	for _, m := range members {
		for k := 0; k < count; k++ {
			l.Record(from+k%4, m, -1)
		}
	}
}

func TestGroupDetectsRing(t *testing.T) {
	const n = 16
	l := reputation.NewLedger(n)
	ring := []int{1, 2, 3}
	plantRing(l, ring, 30)
	addOutsideNegatives(l, ring, 8, 6)
	// Honest background traffic.
	for k := 0; k < 60; k++ {
		l.Record(8+k%4, 12+k%3, 1)
	}

	g := NewGroupDetector(DefaultThresholds())
	res := g.Detect(l)
	if len(res.Groups) != 1 || !res.HasGroup(1, 2, 3) {
		t.Fatalf("groups = %+v, want ring {1,2,3}", res.Groups)
	}
	grp := res.Groups[0]
	if grp.InsideRatings != 90 {
		t.Fatalf("inside ratings = %d, want 90", grp.InsideRatings)
	}
	if grp.OutsidePositiveShare != 0 {
		t.Fatalf("outside positive share = %v, want 0", grp.OutsidePositiveShare)
	}
	nodes := flaggedNodes(res.Flagged)
	if len(nodes) != 3 {
		t.Fatalf("flagged = %v", nodes)
	}
}

// The pairwise methods are blind to a 3-ring: no member pair rates
// mutually, so the paper's future-work case is a genuine gap the group
// detector closes.
func TestPairwiseMissesRingGroupCatches(t *testing.T) {
	const n = 16
	l := reputation.NewLedger(n)
	ring := []int{1, 2, 3}
	plantRing(l, ring, 30)
	addOutsideNegatives(l, ring, 8, 6)

	if res := NewBasic(DefaultThresholds()).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged ring pairs: %+v", res.Pairs)
	}
	if res := NewOptimized(DefaultThresholds()).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged ring pairs: %+v", res.Pairs)
	}
	if res := NewGroupDetector(DefaultThresholds()).Detect(l); !res.HasGroup(1, 2, 3) {
		t.Fatalf("group detector missed the ring: %+v", res.Groups)
	}
}

func TestGroupDetectsClique(t *testing.T) {
	const n = 20
	l := reputation.NewLedger(n)
	clique := []int{4, 5, 6, 7}
	plantClique(l, clique, 25)
	addOutsideNegatives(l, clique, 10, 5)

	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if !res.HasGroup(4, 5, 6, 7) {
		t.Fatalf("clique not detected: %+v", res.Groups)
	}
}

func TestGroupDetectsPairAsTwoCycle(t *testing.T) {
	l := buildCollusionLedger(t)
	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if !res.HasGroup(1, 2) {
		t.Fatalf("pair not detected as 2-cycle: %+v", res.Groups)
	}
}

func TestGroupIgnoresHonestPopularCluster(t *testing.T) {
	// Mutually boosting nodes whose outside world also rates them well:
	// fails C2, must not be flagged.
	const n = 16
	l := reputation.NewLedger(n)
	plantClique(l, []int{1, 2, 3}, 25)
	for k := 0; k < 90; k++ {
		l.Record(8+k%6, 1+k%3, 1) // outside positives
	}
	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if len(res.Groups) != 0 {
		t.Fatalf("honest cluster flagged: %+v", res.Groups)
	}
}

func TestGroupIgnoresOneWayChain(t *testing.T) {
	// A directed chain 1→2→3 with no back edges is not strongly connected
	// and must not be flagged even with negative outsiders.
	const n = 16
	l := reputation.NewLedger(n)
	for k := 0; k < 30; k++ {
		l.Record(1, 2, 1)
		l.Record(2, 3, 1)
	}
	addOutsideNegatives(l, []int{2, 3}, 8, 4)
	// Keep all three high-reputed.
	for k := 0; k < 40; k++ {
		l.Record(8+k%4, 1, 1)
	}
	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if len(res.Groups) != 0 {
		t.Fatalf("one-way chain flagged: %+v", res.Groups)
	}
}

func TestGroupLowReputedSkipped(t *testing.T) {
	const n = 12
	l := reputation.NewLedger(n)
	ring := []int{1, 2, 3}
	plantRing(l, ring, 25)
	// Sink their summation reputations below TR.
	for _, m := range ring {
		for k := 0; k < 40; k++ {
			l.Record(4+k%5, m, -1)
		}
	}
	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if len(res.Groups) != 0 {
		t.Fatalf("low-reputed ring flagged: %+v", res.Groups)
	}
}

func TestGroupStrictRequiresAllMembers(t *testing.T) {
	const n = 20
	l := reputation.NewLedger(n)
	ring := []int{1, 2, 3}
	plantRing(l, ring, 30)
	// Nodes 2 and 3 look propped-up; node 1 has an honestly positive
	// outside record (the compromised-pretrust pattern).
	addOutsideNegatives(l, []int{2, 3}, 8, 6)
	for k := 0; k < 30; k++ {
		l.Record(8+k%6, 1, 1)
	}

	th := DefaultThresholds()
	relaxed := NewGroupDetector(th).Detect(l)
	if !relaxed.HasGroup(1, 2, 3) {
		t.Fatalf("default rule missed majority-suspicious ring: %+v", relaxed.Groups)
	}
	th.StrictReverse = true
	strict := NewGroupDetector(th).Detect(l)
	if len(strict.Groups) != 0 {
		t.Fatalf("strict rule flagged ring with a clean member: %+v", strict.Groups)
	}
}

func TestGroupMaxGroupSize(t *testing.T) {
	const n = 20
	l := reputation.NewLedger(n)
	clique := []int{1, 2, 3, 4, 5}
	plantClique(l, clique, 25)
	addOutsideNegatives(l, clique, 10, 5)
	g := NewGroupDetector(DefaultThresholds())
	g.MaxGroupSize = 4
	if res := g.Detect(l); len(res.Groups) != 0 {
		t.Fatalf("oversized group reported despite cap: %+v", res.Groups)
	}
	g.MaxGroupSize = 5
	if res := g.Detect(l); !res.HasGroup(clique...) {
		t.Fatal("group at the cap should be reported")
	}
}

func TestGroupMultipleDisjointGroups(t *testing.T) {
	const n = 24
	l := reputation.NewLedger(n)
	plantRing(l, []int{1, 2, 3}, 25)
	plantClique(l, []int{5, 6}, 25)
	addOutsideNegatives(l, []int{1, 2, 3, 5, 6}, 10, 5)
	res := NewGroupDetector(DefaultThresholds()).Detect(l)
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %+v, want 2", res.Groups)
	}
	if !res.HasGroup(1, 2, 3) || !res.HasGroup(5, 6) {
		t.Fatalf("missing groups: %+v", res.Groups)
	}
}

func TestGroupCostAccounting(t *testing.T) {
	var meter metrics.CostMeter
	l := buildCollusionLedger(t)
	g := NewGroupDetector(DefaultThresholds())
	g.Meter = &meter
	g.Detect(l)
	if meter.Get(metrics.CostPairCheck) == 0 {
		t.Fatal("no edge examinations counted")
	}
	if meter.Get(metrics.CostMatrixScan) == 0 {
		t.Fatal("no outside scans counted")
	}
}

// Property: every pair flagged by the pairwise optimized detector appears
// inside some group flagged by the group detector (groups generalize
// pairs) on ±1 ledgers.
func TestQuickGroupsCoverPairs(t *testing.T) {
	th := Thresholds{TR: 1, TN: 4, Ta: 0.8, Tb: 0.2}
	f := func(events []uint16, boost uint8) bool {
		const n = 8
		l := reputation.NewLedger(n)
		for _, e := range events {
			i := int(e) % n
			j := int(e>>3) % n
			if i == j {
				continue
			}
			pol := 1
			if e>>6&1 == 1 {
				pol = -1
			}
			l.Record(i, j, pol)
		}
		for k := 0; k < int(boost)%40; k++ {
			l.Record(0, 1, 1)
			l.Record(1, 0, 1)
		}
		pairs := NewBasic(th).Detect(l)
		groups := NewGroupDetector(th).Detect(l)
		for _, e := range pairs.Pairs {
			covered := false
			for _, g := range groups.Groups {
				inG := map[int]bool{}
				for _, m := range g.Members {
					inG[m] = true
				}
				if inG[e.I] && inG[e.J] {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStronglyConnectedKnownGraph(t *testing.T) {
	nodes := []int{1, 2, 3, 4, 5}
	adj := map[int][]int{1: {2}, 2: {3}, 3: {1}, 4: {5}}
	radj := map[int][]int{2: {1}, 3: {2}, 1: {3}, 5: {4}}
	comps := stronglyConnected(nodes, adj, radj)
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[1] != 2 {
		t.Fatalf("components = %v", comps)
	}
}

// Property: strongly connected components partition the node set.
func TestQuickSCCPartition(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 10
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		adj := map[int][]int{}
		radj := map[int][]int{}
		for _, e := range edges {
			a := int(e) % n
			b := int(e>>4) % n
			if a == b {
				continue
			}
			adj[a] = append(adj[a], b)
			radj[b] = append(radj[b], a)
		}
		comps := stronglyConnected(nodes, adj, radj)
		seen := map[int]int{}
		total := 0
		for _, c := range comps {
			total += len(c)
			for _, m := range c {
				seen[m]++
			}
		}
		if total != n || len(seen) != n {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGroupDetect200(b *testing.B) {
	l := benchLedger(200)
	plantRing(l, []int{20, 21, 22}, 30)
	d := NewGroupDetector(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}
