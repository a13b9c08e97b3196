package reputation

import (
	"math"
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// buildConsensusLedger gives every node some consensus history: raters
// 0..5 rate targets 6..9 with agreed polarities.
func buildConsensusLedger() *Ledger {
	l := NewLedger(12)
	for rater := 0; rater < 6; rater++ {
		for rep := 0; rep < 5; rep++ {
			l.Record(rater, 6, 1)  // everyone likes 6
			l.Record(rater, 7, 1)  // everyone likes 7
			l.Record(rater, 8, -1) // everyone dislikes 8
		}
	}
	return l
}

func TestSimilarityCredibilityAgreement(t *testing.T) {
	l := buildConsensusLedger()
	e := NewSimilarityWeighted()
	cr := e.credibilityWeights(l)
	// Raters 0-5 agree perfectly with consensus: credibility 1.
	for rater := 0; rater < 6; rater++ {
		if math.Abs(cr[rater]-1) > 1e-9 {
			t.Fatalf("agreeing rater %d credibility = %v, want 1", rater, cr[rater])
		}
	}
	// Nodes that never rated anyone get the neutral weight.
	if cr[10] != 0.5 {
		t.Fatalf("silent node credibility = %v, want 0.5", cr[10])
	}
}

func TestSimilarityCredibilityDeviation(t *testing.T) {
	l := buildConsensusLedger()
	// Node 11 rates against consensus everywhere.
	for rep := 0; rep < 5; rep++ {
		l.Record(11, 6, -1)
		l.Record(11, 7, -1)
		l.Record(11, 8, 1)
	}
	cr := NewSimilarityWeighted().credibilityWeights(l)
	if cr[11] > 0.3 {
		t.Fatalf("contrarian credibility = %v, want near 0", cr[11])
	}
}

func TestSimilarityDampensBoosting(t *testing.T) {
	const n = 20
	base := func() *Ledger {
		l := NewLedger(n)
		r := rng.New(4)
		// Consensus background: targets 10..15 receive honest mixed
		// ratings from raters 0..7.
		for k := 0; k < 600; k++ {
			rater := r.Intn(8)
			target := 10 + r.Intn(6)
			pol := 1
			if r.Bool(0.3) {
				pol = -1
			}
			l.Record(rater, target, pol)
		}
		return l
	}

	// Booster 16 floods target 10... use a dedicated unpopular target 17:
	// the crowd rates 17 mostly negatively, the booster only positively.
	plain := base()
	boosted := base()
	for k := 0; k < 40; k++ {
		plain.Record(0, 17, -1) // crowd view without boosting
		boosted.Record(0, 17, -1)
		boosted.Record(16, 17, 1)
	}

	sim := NewSimilarityWeighted()
	simScores := sim.Scores(boosted)
	sumScores := Summation{}.Scores(boosted)

	// Under plain summation the boosted target breaks even (40 pos vs 40
	// neg => 0); under similarity weighting the booster's deviating
	// ratings are discounted, leaving the target clearly negative relative
	// to honest targets.
	if sumScores[17] != 0 {
		t.Fatalf("summation score = %v, want 0 by construction", sumScores[17])
	}
	if simScores[17] > 0 {
		t.Fatalf("similarity-weighted score = %v, want <= 0", simScores[17])
	}
	cr := sim.credibilityWeights(boosted)
	if cr[16] >= cr[0] {
		t.Fatalf("booster credibility %v not below honest rater %v", cr[16], cr[0])
	}
}

func TestSimilarityScoresAreDistribution(t *testing.T) {
	l := buildConsensusLedger()
	scores := NewSimilarityWeighted().Scores(l)
	if err := CheckDistribution(scores, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityEmptyLedger(t *testing.T) {
	l := NewLedger(5)
	scores := NewSimilarityWeighted().Scores(l)
	for i, s := range scores {
		if s != 0 {
			t.Fatalf("score[%d] = %v on empty ledger", i, s)
		}
	}
}

func TestSimilarityName(t *testing.T) {
	if NewSimilarityWeighted().Name() != "similarity-weighted" {
		t.Fatal("wrong name")
	}
}

func BenchmarkSimilarityWeighted200(b *testing.B) {
	l := benchLedger(200)
	e := NewSimilarityWeighted()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scores(l)
	}
}
