package simulator

import (
	"math"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/stats"
)

// smallConfig shrinks the paper's setup for fast unit tests while keeping
// the structure (pretrusted, paired colluders, interest clusters).
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Overlay.Nodes = 60
	cfg.SimCycles = 8
	cfg.QueryCycles = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Overlay.Nodes = 1 },
		func(c *Config) { c.Pretrusted = []int{-1} },
		func(c *Config) { c.Pretrusted = []int{9999} },
		func(c *Config) { c.Colluders = []int{0} },                 // duplicate with pretrusted
		func(c *Config) { c.Colluders = []int{30, 31, 32} },        // odd count
		func(c *Config) { c.CompromisedPairs = [][2]int{{50, 3}} }, // 50 not pretrusted
		func(c *Config) { c.CompromisedPairs = [][2]int{{0, 50}} }, // 50 not a colluder
		func(c *Config) { c.ColluderGoodProb = 1.5 },
		func(c *Config) { c.NormalGoodProb = -0.1 },
		func(c *Config) { c.ActiveProbRange = [2]float64{0.8, 0.3} },
		func(c *Config) { c.SimCycles = 0 },
		func(c *Config) { c.QueryCycles = 0 },
		func(c *Config) { c.CollusionRatings = -1 },
		func(c *Config) { c.Workers = -1 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if EngineEigenTrust.String() != "eigentrust" ||
		EngineSummation.String() != "summation" ||
		EngineWeightedSum.String() != "weighted-sum" {
		t.Fatal("EngineKind strings wrong")
	}
	if DetectorNone.String() != "none" ||
		DetectorBasic.String() != "unoptimized" ||
		DetectorOptimized.String() != "optimized" {
		t.Fatal("DetectorKind strings wrong")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RequestsTotal != b.RequestsTotal || a.RatingsRecorded != b.RatingsRecorded {
		t.Fatalf("request counts diverged: %d/%d vs %d/%d",
			a.RequestsTotal, a.RatingsRecorded, b.RequestsTotal, b.RatingsRecorded)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("score %d diverged: %v vs %v", i, a.Scores[i], b.Scores[i])
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := smallConfig()
	a, _ := Run(cfg)
	cfg.Seed = 999
	b, _ := Run(cfg)
	if a.RequestsTotal == b.RequestsTotal && a.RatingsRecorded == b.RatingsRecorded {
		same := true
		for i := range a.Scores {
			if a.Scores[i] != b.Scores[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestRatingsConserved(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < res.Ledger.Size(); i++ {
		total += res.Ledger.TotalFor(i)
	}
	if total != res.RatingsRecorded {
		t.Fatalf("ledger holds %d ratings, recorded %d", total, res.RatingsRecorded)
	}
	if res.RequestsTotal == 0 {
		t.Fatal("no requests served")
	}
}

// groupMeans averages final scores over the three node populations.
func groupMeans(cfg Config, res *Result) (pre, col, norm float64) {
	var sp, sc, sn stats.Summary
	isPre := map[int]bool{}
	for _, p := range cfg.Pretrusted {
		isPre[p] = true
	}
	isCol := map[int]bool{}
	for _, c := range cfg.Colluders {
		isCol[c] = true
	}
	for i, s := range res.Scores {
		switch {
		case isPre[i]:
			sp.Add(s)
		case isCol[i]:
			sc.Add(s)
		default:
			sn.Add(s)
		}
	}
	return sp.Mean(), sc.Mean(), sn.Mean()
}

// Figure 5 shape: with B=0.6 under bare EigenTrust, colluders end with the
// highest reputations — above even the pretrusted nodes.
func TestEigenTrustCollusionWinsAtB06(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, col, norm := groupMeans(cfg, res)
	if col <= pre {
		t.Fatalf("colluder mean %v not above pretrusted mean %v", col, pre)
	}
	if pre <= norm {
		t.Fatalf("pretrusted mean %v not above normal mean %v", pre, norm)
	}
}

// Figure 6 shape: with B=0.2, EigenTrust suppresses the colluders and the
// pretrusted nodes dominate.
func TestEigenTrustSuppressesAtB02(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pre, col, _ := groupMeans(cfg, res)
	if col >= pre/10 {
		t.Fatalf("colluder mean %v not well below pretrusted mean %v", col, pre)
	}
}

// Figure 7 shape: compromised pretrusted nodes lift their colluding
// partners above the remaining honest pretrusted node.
func TestCompromisedPretrustBoostsColluders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.CompromisedPairs = [][2]int{{0, 3}, {1, 5}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The directly boosted colluders (3 and 5) must exceed every normal
	// node and at least one pretrusted node.
	maxNormal := 0.0
	for i, s := range res.Scores {
		if i > 10 && s > maxNormal {
			maxNormal = s
		}
	}
	if res.Scores[3] <= maxNormal || res.Scores[5] <= maxNormal {
		t.Fatalf("boosted colluders (%v, %v) not above normal max %v",
			res.Scores[3], res.Scores[5], maxNormal)
	}
	minPre := math.Inf(1)
	for _, p := range cfg.Pretrusted {
		if res.Scores[p] < minPre {
			minPre = res.Scores[p]
		}
	}
	if res.Scores[3] <= minPre && res.Scores[5] <= minPre {
		t.Fatalf("no boosted colluder (%v, %v) beats the weakest pretrusted %v",
			res.Scores[3], res.Scores[5], minPre)
	}
	// The tail colluders (7..10), starved of requests, stay near zero.
	for i := 7; i <= 10; i++ {
		if res.Scores[i] > res.Scores[3]/10 {
			t.Fatalf("tail colluder %d score %v unexpectedly high", i, res.Scores[i])
		}
	}
}

// Figure 8 shape: the standalone detectors (summation engine, no
// pretrusted nodes) catch all colluders and zero their reputations, and
// the basic and optimized methods produce identical results.
func TestStandaloneDetectorsCatchAll(t *testing.T) {
	base := DefaultConfig()
	base.Pretrusted = nil
	base.Colluders = []int{0, 1, 2, 3, 4, 5, 6, 7}
	base.ColluderGoodProb = 0.2
	base.Engine = EngineSummation

	var results []*Result
	for _, det := range []DetectorKind{DetectorBasic, DetectorOptimized} {
		cfg := base
		cfg.Detector = det
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfg.Colluders {
			if !res.Flagged[c] {
				t.Fatalf("%v: colluder %d not flagged", det, c)
			}
			if res.Scores[c] != 0 {
				t.Fatalf("%v: colluder %d score %v, want 0", det, c, res.Scores[c])
			}
		}
		// Normal nodes must not be flagged (no false positives).
		for i := 8; i < cfg.Overlay.Nodes; i++ {
			if res.Flagged[i] {
				t.Fatalf("%v: normal node %d falsely flagged", det, i)
			}
		}
		results = append(results, res)
	}
	// "Unoptimized and Optimized generate the same results."
	if len(results[0].DetectedPairs) != len(results[1].DetectedPairs) {
		t.Fatalf("detectors disagree: %d vs %d pairs",
			len(results[0].DetectedPairs), len(results[1].DetectedPairs))
	}
	for i := range results[0].DetectedPairs {
		a, b := results[0].DetectedPairs[i], results[1].DetectedPairs[i]
		if a.I != b.I || a.J != b.J {
			t.Fatalf("pair %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// Figures 9-10 shape: EigenTrust + Optimized zeroes the colluders at both
// B values while pretrusted nodes stay on top.
func TestEigenTrustPlusOptimized(t *testing.T) {
	for _, b := range []float64{0.6, 0.2} {
		cfg := DefaultConfig()
		cfg.ColluderGoodProb = b
		cfg.Detector = DetectorOptimized
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, c := range cfg.Colluders {
			if res.Flagged[c] {
				flagged++
			}
			if res.Scores[c] > 1e-3 {
				t.Fatalf("B=%v: colluder %d retains score %v", b, c, res.Scores[c])
			}
		}
		// Collusion detection may miss a starved pair whose outside sample
		// is too small to judge, but must catch the clear majority.
		if flagged < len(cfg.Colluders)-2 {
			t.Fatalf("B=%v: only %d/%d colluders flagged", b, flagged, len(cfg.Colluders))
		}
		pre, _, norm := groupMeans(cfg, res)
		if pre <= norm {
			t.Fatalf("B=%v: pretrusted mean %v not above normal %v", b, pre, norm)
		}
		for _, p := range cfg.Pretrusted {
			if res.Flagged[p] {
				t.Fatalf("B=%v: pretrusted node %d falsely flagged", b, p)
			}
		}
	}
}

// Figure 11 shape: with the detector attached, compromised pretrusted
// nodes and their partners end at zero while the untouched pretrusted node
// keeps a high reputation.
func TestDetectorCatchesCompromisedPretrust(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.CompromisedPairs = [][2]int{{0, 3}, {1, 5}}
	cfg.Detector = DetectorOptimized
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, 1, 3, 5} {
		if !res.Flagged[bad] {
			t.Fatalf("compromised participant %d not flagged", bad)
		}
		if res.Scores[bad] != 0 {
			t.Fatalf("compromised participant %d score %v, want 0", bad, res.Scores[bad])
		}
	}
	// Node 2 is the honest pretrusted node; it must stay unflagged with a
	// reputation well above the normal-node average (the paper notes its
	// reputation "is still high" — though, as in Figure 11(a), individual
	// normal nodes can end even higher through rich-get-richer selection).
	if res.Flagged[2] {
		t.Fatal("honest pretrusted node flagged")
	}
	var norm stats.Summary
	for i := 11; i < cfg.Overlay.Nodes; i++ {
		norm.Add(res.Scores[i])
	}
	if res.Scores[2] <= 10*norm.Mean() {
		t.Fatalf("honest pretrusted %v not well above normal mean %v", res.Scores[2], norm.Mean())
	}
}

// Figure 12 shape: the detectors keep the colluders' request share low and
// roughly flat while bare EigenTrust's share grows with the colluder count.
func TestRequestShareShape(t *testing.T) {
	share := func(det DetectorKind, numColluders int) float64 {
		cfg := DefaultConfig()
		cfg.ColluderGoodProb = 0.2
		cfg.Detector = det
		cfg.Colluders = make([]int, numColluders)
		for i := range cfg.Colluders {
			cfg.Colluders[i] = 3 + i
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PercentToColluders()
	}
	etSmall, etBig := share(DetectorNone, 8), share(DetectorNone, 58)
	optSmall, optBig := share(DetectorOptimized, 8), share(DetectorOptimized, 58)
	if etBig <= etSmall {
		t.Fatalf("EigenTrust share did not grow: %v -> %v", etSmall, etBig)
	}
	if optBig >= etBig/3 {
		t.Fatalf("detector share %v not well below EigenTrust %v", optBig, etBig)
	}
	if optSmall >= etSmall {
		t.Fatalf("detector share %v above EigenTrust %v at 8 colluders", optSmall, etSmall)
	}
}

// Figure 13 shape: measured operation cost orders as
// Unoptimized >> EigenTrust > Optimized on the same scenario.
func TestOperationCostOrdering(t *testing.T) {
	cost := func(engine EngineKind, det DetectorKind) map[string]int64 {
		var meter metrics.CostMeter
		cfg := DefaultConfig()
		cfg.ColluderGoodProb = 0.2
		cfg.Engine = engine
		cfg.Detector = det
		cfg.Meter = &meter
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return meter.Snapshot()
	}
	et := cost(EngineEigenTrust, DetectorNone)
	basic := cost(EngineSummation, DetectorBasic)
	opt := cost(EngineSummation, DetectorOptimized)

	etCost := et[metrics.CostEigenMulAdd]
	basicCost := basic[metrics.CostMatrixScan] + basic[metrics.CostPairCheck]
	optCost := opt[metrics.CostBoundCheck] + opt[metrics.CostPairCheck]
	if etCost == 0 || basicCost == 0 || optCost == 0 {
		t.Fatalf("missing costs: et=%d basic=%d opt=%d", etCost, basicCost, optCost)
	}
	if basicCost <= optCost {
		t.Fatalf("basic cost %d not above optimized %d", basicCost, optCost)
	}
	if etCost <= optCost {
		t.Fatalf("eigentrust cost %d not above optimized %d", etCost, optCost)
	}
}

func TestWeightedSumEngineRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Engine = EngineWeightedSum
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != cfg.Overlay.Nodes {
		t.Fatalf("scores length %d", len(res.Scores))
	}
}

func TestRunAveraged(t *testing.T) {
	cfg := smallConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.Detector = DetectorOptimized
	avg, err := RunAveraged(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Runs != 3 {
		t.Fatalf("Runs = %d", avg.Runs)
	}
	if len(avg.Scores) != cfg.Overlay.Nodes || len(avg.FlagRate) != cfg.Overlay.Nodes {
		t.Fatal("wrong result lengths")
	}
	for i, f := range avg.FlagRate {
		if f < 0 || f > 1 {
			t.Fatalf("FlagRate[%d] = %v", i, f)
		}
	}
	if _, err := RunAveraged(cfg, 0); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestPercentToColludersZeroRequests(t *testing.T) {
	var r Result
	if got := r.PercentToColluders(); got != 0 {
		t.Fatalf("PercentToColluders with no requests = %v", got)
	}
}

func BenchmarkRunSmall(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunPaperScale(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Detector = DetectorOptimized
	cfg.ColluderGoodProb = 0.2
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
