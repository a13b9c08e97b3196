package core

import (
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
)

// plantSwarm floods target with all-positive ratings from each booster.
func plantSwarm(l *reputation.Ledger, target int, boosters []int, ratings int) {
	for _, b := range boosters {
		for k := 0; k < ratings; k++ {
			l.Record(b, target, 1)
		}
	}
}

// hasTarget reports whether res found node as a boosted beneficiary.
func hasTarget(res SybilResult, node int) bool {
	for _, f := range res.Findings {
		if f.Target == node {
			return true
		}
	}
	return false
}

// flaggedNodes returns the indices set in flagged, ascending.
func flaggedNodes(flagged []bool) []int {
	var out []int
	for i, f := range flagged {
		if f {
			out = append(out, i)
		}
	}
	return out
}

func TestSybilDetectsSwarm(t *testing.T) {
	const n = 24
	l := reputation.NewLedger(n)
	boosters := []int{10, 11, 12, 13}
	plantSwarm(l, 1, boosters, 25)
	// The outside world rates the beneficiary down.
	for k := 0; k < 8; k++ {
		l.Record(16+k%4, 1, -1)
	}
	// Honest background.
	for k := 0; k < 60; k++ {
		l.Record(16+k%6, 5, 1)
	}

	d := NewSybilDetector(DefaultThresholds())
	res := d.Detect(l)
	if len(res.Findings) != 1 || !hasTarget(res, 1) {
		t.Fatalf("findings = %+v, want target 1", res.Findings)
	}
	f := res.Findings[0]
	if len(f.Boosters) != 4 || f.BoosterRatings != 100 {
		t.Fatalf("finding = %+v", f)
	}
	if f.OutsidePositiveShare != 0 {
		t.Fatalf("outside share = %v, want 0", f.OutsidePositiveShare)
	}
	for _, b := range boosters {
		if !res.Flagged[b] {
			t.Fatalf("booster %d not flagged", b)
		}
	}
	if res.Flagged[5] {
		t.Fatal("honest node flagged")
	}
	nodes := flaggedNodes(res.Flagged)
	if len(nodes) != 5 {
		t.Fatalf("flagged = %v", nodes)
	}
}

// One-way swarms are invisible to both pairwise detection (no
// reciprocity) and group detection (no strongly connected structure);
// this is precisely the gap the Sybil detector closes.
func TestPairAndGroupDetectorsMissSwarm(t *testing.T) {
	const n = 24
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12, 13}, 25)
	for k := 0; k < 8; k++ {
		l.Record(16+k%4, 1, -1)
	}

	if res := NewBasic(DefaultThresholds()).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("basic flagged swarm: %+v", res.Pairs)
	}
	if res := NewOptimized(DefaultThresholds()).Detect(l); len(res.Pairs) != 0 {
		t.Fatalf("optimized flagged swarm: %+v", res.Pairs)
	}
	if res := NewGroupDetector(DefaultThresholds()).Detect(l); len(res.Groups) != 0 {
		t.Fatalf("group detector flagged swarm: %+v", res.Groups)
	}
	if res := NewSybilDetector(DefaultThresholds()).Detect(l); !hasTarget(res, 1) {
		t.Fatalf("sybil detector missed swarm: %+v", res.Findings)
	}
}

func TestSybilIgnoresHonestPopularity(t *testing.T) {
	// A genuinely good seller with several loyal frequent customers: the
	// outside world also rates it positively, so C2 fails.
	const n = 24
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12}, 25) // loyal regulars
	for k := 0; k < 40; k++ {
		l.Record(16+k%6, 1, 1) // the crowd agrees
	}
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if len(res.Findings) != 0 {
		t.Fatalf("honest popularity flagged: %+v", res.Findings)
	}
}

func TestSybilBelowMinBoosters(t *testing.T) {
	const n = 16
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11}, 25) // swarm of two: the pairwise regime
	for k := 0; k < 6; k++ {
		l.Record(12+k%3, 1, -1)
	}
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if len(res.Findings) != 0 {
		t.Fatalf("two boosters flagged as a swarm: %+v", res.Findings)
	}
	d := NewSybilDetector(DefaultThresholds())
	d.MinBoosters = 2
	if res := d.Detect(l); !hasTarget(res, 1) {
		t.Fatal("MinBoosters=2 should catch the two-booster swarm")
	}
}

func TestSybilLowReputedTargetSkipped(t *testing.T) {
	const n = 16
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12}, 25)
	// Sink the beneficiary's summation below TR despite the swarm.
	for k := 0; k < 120; k++ {
		l.Record(4+k%5, 1, -1)
	}
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if len(res.Findings) != 0 {
		t.Fatalf("low-reputed target flagged: %+v", res.Findings)
	}
}

func TestSybilNoOutsideRatingsIsSuspicious(t *testing.T) {
	// All of the beneficiary's ratings come from the swarm.
	const n = 16
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12}, 25)
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if !hasTarget(res, 1) {
		t.Fatalf("swarm-only reputation not flagged: %+v", res.Findings)
	}
}

func TestSybilMultipleTargets(t *testing.T) {
	const n = 32
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12}, 25)
	plantSwarm(l, 2, []int{20, 21, 22, 23}, 22)
	for k := 0; k < 6; k++ {
		l.Record(26+k%3, 1, -1)
		l.Record(26+k%3, 2, -1)
	}
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if !hasTarget(res, 1) || !hasTarget(res, 2) {
		t.Fatalf("findings = %+v, want targets 1 and 2", res.Findings)
	}
}

// A frequent all-positive rater that also rates many other nodes is a
// loyal customer, not a fake identity: the concentration criterion keeps
// it out of the swarm.
func TestSybilConcentrationExcludesBusyRaters(t *testing.T) {
	const n = 24
	l := reputation.NewLedger(n)
	// Raters 10-12 each give target 1 twenty-five positives but also
	// spread three times as many ratings over other nodes.
	for _, r := range []int{10, 11, 12} {
		for k := 0; k < 25; k++ {
			l.Record(r, 1, 1)
		}
		for k := 0; k < 75; k++ {
			l.Record(r, 14+k%6, 1)
		}
	}
	for k := 0; k < 8; k++ {
		l.Record(20+k%3, 1, -1)
	}
	res := NewSybilDetector(DefaultThresholds()).Detect(l)
	if len(res.Findings) != 0 {
		t.Fatalf("busy raters misread as a swarm: %+v", res.Findings)
	}
}

func TestSybilCostAccounting(t *testing.T) {
	var meter metrics.CostMeter
	const n = 16
	l := reputation.NewLedger(n)
	plantSwarm(l, 1, []int{10, 11, 12}, 25)
	d := NewSybilDetector(DefaultThresholds())
	d.Meter = &meter
	d.Detect(l)
	if meter.Get(metrics.CostPairCheck) == 0 || meter.Get(metrics.CostMatrixScan) == 0 {
		t.Fatal("costs not counted")
	}
}

func BenchmarkSybilDetect200(b *testing.B) {
	l := benchLedger(200)
	plantSwarm(l, 50, []int{60, 61, 62, 63, 64}, 30)
	d := NewSybilDetector(DefaultThresholds())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}
