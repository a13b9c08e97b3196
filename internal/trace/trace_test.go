package trace

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestScorePolarity(t *testing.T) {
	cases := []struct {
		score Score
		want  int
	}{
		{1, -1}, {2, -1}, {3, 0}, {4, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := c.score.Polarity(); got != c.want {
			t.Errorf("Score(%d).Polarity() = %d, want %d", c.score, got, c.want)
		}
	}
}

func TestScoreValid(t *testing.T) {
	for s := Score(-1); s <= 7; s++ {
		want := s >= 1 && s <= 5
		if got := s.Valid(); got != want {
			t.Errorf("Score(%d).Valid() = %v, want %v", s, got, want)
		}
	}
}

func TestReputationFormula(t *testing.T) {
	// Amazon formula: positives / all ratings (neutral counts in denominator).
	tr := &Trace{Ratings: []Rating{
		{Day: 0, Rater: 10, Target: 1, Score: 5},
		{Day: 1, Rater: 11, Target: 1, Score: 4},
		{Day: 2, Rater: 12, Target: 1, Score: 3},
		{Day: 3, Rater: 13, Target: 1, Score: 1},
		{Day: 4, Rater: 14, Target: 2, Score: 5},
	}}
	rep, ok := tr.Reputation(1)
	if !ok {
		t.Fatal("Reputation(1) reported no ratings")
	}
	if want := 2.0 / 4.0; rep != want {
		t.Fatalf("Reputation(1) = %v, want %v", rep, want)
	}
	if _, ok := tr.Reputation(99); ok {
		t.Fatal("Reputation(99) should report no ratings")
	}
}

func TestTargetsAndRaters(t *testing.T) {
	tr := &Trace{Ratings: []Rating{
		{Rater: 5, Target: 2, Score: 5},
		{Rater: 3, Target: 2, Score: 4},
		{Rater: 5, Target: 1, Score: 1},
	}}
	targets := tr.Targets()
	if len(targets) != 2 || targets[0] != 1 || targets[1] != 2 {
		t.Fatalf("Targets() = %v", targets)
	}
	raters := tr.Raters()
	if len(raters) != 2 || raters[0] != 3 || raters[1] != 5 {
		t.Fatalf("Raters() = %v", raters)
	}
}

func TestCountPairs(t *testing.T) {
	tr := &Trace{Ratings: []Rating{
		{Rater: 1, Target: 2, Score: 5},
		{Rater: 1, Target: 2, Score: 1},
		{Rater: 1, Target: 2, Score: 3},
		{Rater: 2, Target: 1, Score: 4},
	}}
	pairs := tr.CountPairs()
	c := pairs[Pair{1, 2}]
	if c.Total != 3 || c.Positive != 1 || c.Negative != 1 || c.Neutral != 1 {
		t.Fatalf("pair (1,2) counts = %+v", c)
	}
	if pairs[Pair{2, 1}].Total != 1 {
		t.Fatalf("pair (2,1) counts = %+v", pairs[Pair{2, 1}])
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		r    Rating
		want string
	}{
		{"bad score", Rating{Day: 0, Rater: 1, Target: 2, Score: 9}, "score"},
		{"negative day", Rating{Day: -1, Rater: 1, Target: 2, Score: 4}, "day"},
		{"self rating", Rating{Day: 0, Rater: 1, Target: 1, Score: 4}, "self-rating"},
	}
	for _, c := range cases {
		tr := &Trace{Ratings: []Rating{c.r}}
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", c.name, err, c.want)
		}
	}
	good := &Trace{Ratings: []Rating{{Day: 3, Rater: 1, Target: 2, Score: 4}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestSortByDay(t *testing.T) {
	tr := &Trace{Ratings: []Rating{
		{Day: 5, Rater: 1, Target: 2, Score: 4},
		{Day: 1, Rater: 3, Target: 2, Score: 4},
		{Day: 3, Rater: 4, Target: 2, Score: 4},
	}}
	tr.SortByDay()
	for i := 1; i < len(tr.Ratings); i++ {
		if tr.Ratings[i-1].Day > tr.Ratings[i].Day {
			t.Fatalf("not sorted at %d: %+v", i, tr.Ratings)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := &Trace{Ratings: []Rating{
		{Day: 0, Rater: 100, Target: 1, Score: 5},
		{Day: 42, Rater: 101, Target: 2, Score: 1},
		{Day: 364, Rater: 102, Target: 1, Score: 3},
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ratings) != len(orig.Ratings) {
		t.Fatalf("round trip lost ratings: %d != %d", len(got.Ratings), len(orig.Ratings))
	}
	for i := range got.Ratings {
		if got.Ratings[i] != orig.Ratings[i] {
			t.Fatalf("rating %d mismatch: %+v != %+v", i, got.Ratings[i], orig.Ratings[i])
		}
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("a,b,c,d\n1,2,3,4\n"))
	if err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadRow(t *testing.T) {
	in := "day,rater,target,score\nnotanumber,2,3,4\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("bad day value accepted")
	}
	in = "day,rater,target,score\n1,2,3,9\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("out-of-range score accepted")
	}
}

// Property: any structurally valid trace survives a CSV round trip intact.
func TestQuickCSVRoundTrip(t *testing.T) {
	f := func(days []uint8, raters, targets []uint16, scores []uint8) bool {
		n := len(days)
		for _, s := range [][]int{{len(raters)}, {len(targets)}, {len(scores)}} {
			if s[0] < n {
				n = s[0]
			}
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			rater := NodeID(raters[i])
			target := NodeID(targets[i])
			if rater == target {
				target++
			}
			tr.Ratings = append(tr.Ratings, Rating{
				Day:    int(days[i]),
				Rater:  rater,
				Target: target,
				Score:  Score(int(scores[i])%5 + 1),
			})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tr); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(got.Ratings) != len(tr.Ratings) {
			return false
		}
		for i := range got.Ratings {
			if got.Ratings[i] != tr.Ratings[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGroundTruthHelpers(t *testing.T) {
	g := GroundTruth{Boosters: map[NodeID][]NodeID{10: {20, 21}}}
	if !g.IsBooster(10, 20) || g.IsBooster(10, 99) || g.IsBooster(11, 20) {
		t.Fatal("IsBooster wrong")
	}
}

func TestAmazonGeneratorReproducible(t *testing.T) {
	cfg := smallAmazonConfig()
	a, err := GenerateAmazon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAmazon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ratings) != len(b.Ratings) {
		t.Fatalf("same seed produced %d vs %d ratings", len(a.Ratings), len(b.Ratings))
	}
	for i := range a.Ratings {
		if a.Ratings[i] != b.Ratings[i] {
			t.Fatalf("same seed diverged at rating %d", i)
		}
	}
}

func TestAmazonGeneratorSeedSensitivity(t *testing.T) {
	cfg := smallAmazonConfig()
	a, _ := GenerateAmazon(cfg)
	cfg.Seed = 999
	b, _ := GenerateAmazon(cfg)
	if len(a.Ratings) == len(b.Ratings) {
		same := true
		for i := range a.Ratings {
			if a.Ratings[i] != b.Ratings[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func smallAmazonConfig() AmazonConfig {
	cfg := DefaultAmazonConfig()
	cfg.Bands = []SellerBand{
		{Reputation: 0.98, Count: 3, MeanDailyRatings: 2},
		{Reputation: 0.95, Count: 4, MeanDailyRatings: 1.5},
		{Reputation: 0.88, Count: 3, MeanDailyRatings: 1},
		{Reputation: 0.67, Count: 2, MeanDailyRatings: 0.3},
	}
	cfg.SuspiciousSellers = 3
	return cfg
}

func TestAmazonGeneratorStructure(t *testing.T) {
	cfg := smallAmazonConfig()
	at, err := GenerateAmazon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if got, want := len(at.Sellers), 12; got != want {
		t.Fatalf("sellers = %d, want %d", got, want)
	}
	suspicious := 0
	for _, s := range at.Sellers {
		if s.Suspicious {
			suspicious++
			if s.Band < 0.94 || s.Band > 0.97 {
				t.Errorf("suspicious seller %d in band %v, want [0.94, 0.97]", s.ID, s.Band)
			}
		}
	}
	if suspicious != cfg.SuspiciousSellers {
		t.Fatalf("suspicious sellers = %d, want %d", suspicious, cfg.SuspiciousSellers)
	}

	// Every suspicious seller must have planted boosters whose rating counts
	// are at or above the paper's 20/year suspicion line, while organic
	// buyer-seller pairs stay below the NormalRepeatMax cap.
	pairs := at.CountPairs()
	for seller, boosters := range at.Truth.Boosters {
		if len(boosters) != cfg.BoostersPerSeller {
			t.Fatalf("seller %d has %d boosters, want %d", seller, len(boosters), cfg.BoostersPerSeller)
		}
		for _, b := range boosters {
			c := pairs[Pair{b, seller}]
			if c.Total < cfg.BoosterRatingsPerYear[0]*cfg.Days/DaysPerYear {
				t.Errorf("booster %d→%d has only %d ratings", b, seller, c.Total)
			}
			if c.Positive != c.Total {
				t.Errorf("booster %d→%d gave non-positive ratings", b, seller)
			}
		}
	}
	for seller, rivals := range at.Truth.Rivals {
		for _, v := range rivals {
			c := pairs[Pair{v, seller}]
			if c.Negative != c.Total {
				t.Errorf("rival %d→%d gave non-negative ratings", v, seller)
			}
		}
	}
	for p, c := range pairs {
		if at.Truth.IsBooster(p.Target, p.Rater) {
			continue
		}
		isRival := false
		for _, v := range at.Truth.Rivals[p.Target] {
			if v == p.Rater {
				isRival = true
			}
		}
		if isRival {
			continue
		}
		if c.Total > cfg.NormalRepeatMax {
			t.Errorf("organic pair %v has %d ratings, above cap %d", p, c.Total, cfg.NormalRepeatMax)
		}
	}
}

func TestAmazonReputationCalibration(t *testing.T) {
	cfg := smallAmazonConfig()
	cfg.SuspiciousSellers = 0 // measure organic calibration only
	at, err := GenerateAmazon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range at.Sellers {
		rep, ok := at.Reputation(s.ID)
		if !ok {
			continue
		}
		if math.Abs(rep-s.Band) > 0.08 {
			t.Errorf("seller %d reputation %v far from band target %v", s.ID, rep, s.Band)
		}
	}
}

func TestAmazonConfigValidation(t *testing.T) {
	bad := []func(*AmazonConfig){
		func(c *AmazonConfig) { c.Days = 0 },
		func(c *AmazonConfig) { c.Bands = nil },
		func(c *AmazonConfig) { c.Bands[0].Reputation = 1.5 },
		func(c *AmazonConfig) { c.Bands[0].Count = 0 },
		func(c *AmazonConfig) { c.Bands[0].MeanDailyRatings = -1 },
		func(c *AmazonConfig) { c.SuspiciousSellers = 10000 },
		func(c *AmazonConfig) { c.BoosterRatingsPerYear = [2]int{50, 20} },
		func(c *AmazonConfig) { c.RivalRatingsPerYear = [2]int{50, 20} },
		func(c *AmazonConfig) { c.NormalRepeatMax = 0 },
		func(c *AmazonConfig) { c.RepeatBuyerProb = 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultAmazonConfig()
		mutate(&cfg)
		if _, err := GenerateAmazon(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOverstockGeneratorReproducible(t *testing.T) {
	cfg := smallOverstockConfig()
	a, err := GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ratings) != len(b.Ratings) {
		t.Fatalf("same seed produced different sizes")
	}
	for i := range a.Ratings {
		if a.Ratings[i] != b.Ratings[i] {
			t.Fatalf("same seed diverged at rating %d", i)
		}
	}
}

func smallOverstockConfig() OverstockConfig {
	cfg := DefaultOverstockConfig()
	cfg.Users = 300
	cfg.OrganicTransactions = 1500
	cfg.ColludingPairs = 5
	cfg.ChainUsers = 2
	return cfg
}

func TestOverstockGeneratorStructure(t *testing.T) {
	cfg := smallOverstockConfig()
	tr, err := GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	wantPairs := cfg.ColludingPairs + 2*cfg.ChainUsers
	if got := len(tr.Truth.ColludingPairs); got != wantPairs {
		t.Fatalf("planted pairs = %d, want %d", got, wantPairs)
	}

	pairs := tr.CountPairs()
	minPlanted := cfg.ColluderRatingsPerYear[0] * cfg.Days / DaysPerYear
	for _, p := range tr.Truth.ColludingPairs {
		for _, dir := range [][2]NodeID{{p[0], p[1]}, {p[1], p[0]}} {
			c := pairs[Pair{dir[0], dir[1]}]
			if c.Total < minPlanted {
				t.Errorf("planted pair %v→%v has only %d ratings, want >= %d",
					dir[0], dir[1], c.Total, minPlanted)
			}
		}
	}

	// Chain users pair with two partners but those partners never pair with
	// each other: the planted structure must stay pairwise (C5).
	partners := map[NodeID][]NodeID{}
	for _, p := range tr.Truth.ColludingPairs {
		partners[p[0]] = append(partners[p[0]], p[1])
		partners[p[1]] = append(partners[p[1]], p[0])
	}
	multi := 0
	for _, ps := range partners {
		if len(ps) == 2 {
			multi++
			if slices.Contains(partners[ps[0]], ps[1]) {
				t.Error("chain partners form a closed triangle, violating C5")
			}
		}
	}
	if multi != cfg.ChainUsers {
		t.Fatalf("chain users with two partners = %d, want %d", multi, cfg.ChainUsers)
	}
}

func TestOverstockOrganicPairsBelowThreshold(t *testing.T) {
	cfg := smallOverstockConfig()
	tr, err := GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planted := map[Pair]bool{}
	for _, p := range tr.Truth.ColludingPairs {
		planted[Pair{p[0], p[1]}] = true
		planted[Pair{p[1], p[0]}] = true
	}
	// The Figure 1(d) edge threshold is 20 ratings; organic pairs must stay
	// well below it or the figure would be pure noise.
	for p, c := range tr.CountPairs() {
		if planted[p] {
			continue
		}
		if c.Total >= 20 {
			t.Fatalf("organic pair %v reached %d ratings", p, c.Total)
		}
	}
}

func TestOverstockConfigValidation(t *testing.T) {
	bad := []func(*OverstockConfig){
		func(c *OverstockConfig) { c.Days = 0 },
		func(c *OverstockConfig) { c.Users = 1 },
		func(c *OverstockConfig) { c.OrganicTransactions = -1 },
		func(c *OverstockConfig) { c.MutualRatingProb = -0.1 },
		func(c *OverstockConfig) { c.PositiveProb = 1.1 },
		func(c *OverstockConfig) { c.Users = 5; c.ColludingPairs = 10 },
		func(c *OverstockConfig) { c.ColluderRatingsPerYear = [2]int{50, 20} },
		func(c *OverstockConfig) { c.ColluderRatingsPerYear = [2]int{0, 5} },
	}
	for i, mutate := range bad {
		cfg := DefaultOverstockConfig()
		mutate(&cfg)
		if _, err := GenerateOverstock(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	if err := DefaultAmazonConfig().Validate(); err != nil {
		t.Errorf("DefaultAmazonConfig invalid: %v", err)
	}
	if err := DefaultOverstockConfig().Validate(); err != nil {
		t.Errorf("DefaultOverstockConfig invalid: %v", err)
	}
}

func BenchmarkGenerateAmazonSmall(b *testing.B) {
	cfg := smallAmazonConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateAmazon(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountPairs(b *testing.B) {
	at, err := GenerateAmazon(smallAmazonConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at.CountPairs()
	}
}
