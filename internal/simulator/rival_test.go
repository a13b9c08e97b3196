package simulator

import (
	"testing"

	"github.com/p2psim/collusion/internal/analysis"
	"github.com/p2psim/collusion/internal/trace"
)

func rivalConfig() Config {
	cfg := DefaultConfig()
	cfg.Colluders = nil
	cfg.Rivals = [][2]int{{20, 21}} // 20 badmouths 21
	return cfg
}

func TestRivalConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Rivals = [][2]int{{-1, 21}} },
		func(c *Config) { c.Rivals = [][2]int{{20, 999}} },
		func(c *Config) { c.Rivals = [][2]int{{0, 21}} },  // pretrusted reused
		func(c *Config) { c.Rivals = [][2]int{{20, 20}} }, // self
	}
	for i, mutate := range bad {
		cfg := rivalConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad rival config %d accepted", i)
		}
	}
}

// Badmouthing floods devastate the victim's summation reputation, and the
// Section III frequency filter exposes the attack: the rival pair crosses
// the 20-ratings threshold with an in-pair positive share of zero.
func TestRivalFloodExposedByFrequencyFilter(t *testing.T) {
	cfg := rivalConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attacker, victim := 20, 21
	if res.Ledger.SummationScore(victim) >= 0 {
		t.Fatalf("victim summation = %d, expected driven negative",
			res.Ledger.SummationScore(victim))
	}

	// Convert the ledger's attacker→victim relationship into a trace and
	// run the Section III filter: the rival must surface with a = 0.
	tr := &trace.Trace{}
	for target := 0; target < cfg.Overlay.Nodes; target++ {
		pc := res.Ledger.PairCountsOf(target)
		for i, rater := range pc.Raters {
			for k := int32(0); k < pc.Pos[i]; k++ {
				tr.Ratings = append(tr.Ratings, trace.Rating{
					Rater: trace.NodeID(rater), Target: trace.NodeID(target), Score: 5})
			}
			for k := int32(0); k < pc.Neg[i]; k++ {
				tr.Ratings = append(tr.Ratings, trace.Rating{
					Rater: trace.NodeID(rater), Target: trace.NodeID(target), Score: 1})
			}
		}
	}
	filter := analysis.SuspiciousPairs(tr, 20)
	found := false
	for _, p := range filter.Pairs {
		if p.Rater == trace.NodeID(attacker) && p.Target == trace.NodeID(victim) {
			found = true
			if p.A != 0 {
				t.Fatalf("rival in-pair positive share = %v, want 0", p.A)
			}
		}
	}
	if !found {
		t.Fatal("frequency filter did not surface the rival pair")
	}
}

// Rival flooding must not trip the collusion detectors: badmouthing is
// not mutual positive boosting.
func TestRivalsNotFlaggedAsColluders(t *testing.T) {
	cfg := rivalConfig()
	cfg.Detector = DetectorOptimized
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flagged[20] || res.Flagged[21] {
		t.Fatal("rival participants flagged as colluders")
	}
}
