package analysis

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/p2psim/collusion/internal/trace"
)

func mkRating(day int, rater, target trace.NodeID, score trace.Score) trace.Rating {
	return trace.Rating{Day: day, Rater: rater, Target: target, Score: score}
}

func TestRatingVsReputation(t *testing.T) {
	tr := &trace.Trace{Ratings: []trace.Rating{
		mkRating(0, 10, 1, 5),
		mkRating(1, 11, 1, 4),
		mkRating(2, 12, 1, 1),
		mkRating(3, 13, 2, 5),
		mkRating(4, 14, 2, 3),
	}}
	vols := RatingVsReputation(tr)
	if len(vols) != 2 {
		t.Fatalf("got %d sellers, want 2", len(vols))
	}
	// Seller 1: 2 positive, 1 negative => reputation 2/3.
	// Seller 2: 1 positive, 1 neutral => reputation 1/2.
	if vols[0].Seller != 1 || math.Abs(vols[0].Reputation-2.0/3.0) > 1e-12 {
		t.Fatalf("first seller = %+v", vols[0])
	}
	if vols[0].Positive != 2 || vols[0].Negative != 1 || vols[0].Neutral != 0 {
		t.Fatalf("seller 1 volumes = %+v", vols[0])
	}
	if vols[1].Seller != 2 || vols[1].Neutral != 1 {
		t.Fatalf("second seller = %+v", vols[1])
	}
	if vols[0].Reputation < vols[1].Reputation {
		t.Fatal("not sorted by descending reputation")
	}
}

func TestSuspiciousPairsManual(t *testing.T) {
	tr := &trace.Trace{}
	// Booster 100 rates seller 1 thirty times with 5s.
	for d := 0; d < 30; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 100, 1, 5))
	}
	// Everyone else gives seller 1 mostly negatives: 10 ratings, 1 positive.
	for d := 0; d < 10; d++ {
		score := trace.Score(1)
		if d == 0 {
			score = 5
		}
		tr.Ratings = append(tr.Ratings, mkRating(d, trace.NodeID(200+d), 1, score))
	}
	// A normal low-frequency pair that must not be flagged.
	tr.Ratings = append(tr.Ratings, mkRating(3, 300, 2, 4))

	res := SuspiciousPairs(tr, 20)
	if len(res.Pairs) != 1 {
		t.Fatalf("flagged %d pairs, want 1: %+v", len(res.Pairs), res.Pairs)
	}
	p := res.Pairs[0]
	if p.Rater != 100 || p.Target != 1 || p.Count != 30 {
		t.Fatalf("flagged pair = %+v", p)
	}
	if p.A != 1.0 {
		t.Fatalf("a = %v, want 1.0", p.A)
	}
	if want := 0.1; math.Abs(p.B-want) > 1e-12 {
		t.Fatalf("b = %v, want %v", p.B, want)
	}
	if len(res.Sellers) != 1 || res.Sellers[0] != 1 {
		t.Fatalf("suspicious sellers = %v", res.Sellers)
	}
	if len(res.Raters) != 1 || res.Raters[0] != 100 {
		t.Fatalf("suspicious raters = %v", res.Raters)
	}
	if res.MeanA != 1.0 || math.Abs(res.MeanB-0.1) > 1e-12 {
		t.Fatalf("MeanA/MeanB = %v/%v", res.MeanA, res.MeanB)
	}
}

func TestSuspiciousPairsRivalIncluded(t *testing.T) {
	tr := &trace.Trace{}
	for d := 0; d < 25; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 100, 1, 1)) // rival: all 1s
	}
	for d := 0; d < 5; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, trace.NodeID(200+d), 1, 5))
	}
	res := SuspiciousPairs(tr, 20)
	if len(res.Pairs) != 1 {
		t.Fatalf("flagged %d pairs, want 1", len(res.Pairs))
	}
	if res.Pairs[0].A != 0 {
		t.Fatalf("rival a = %v, want 0", res.Pairs[0].A)
	}
	// Rival pairs (a <= 0.5) must not contaminate the booster means.
	if res.MeanA != 0 || res.MeanB != 0 {
		t.Fatalf("means should be zero with no boosters: %v/%v", res.MeanA, res.MeanB)
	}
}

func TestSellerRaterSeries(t *testing.T) {
	tr := &trace.Trace{Ratings: []trace.Rating{
		mkRating(5, 100, 1, 5),
		mkRating(1, 100, 1, 5),
		mkRating(3, 100, 1, 4),
		mkRating(2, 101, 1, 1),
		mkRating(0, 102, 2, 5),
	}}
	series := SellerRaterSeries(tr, 1, 2)
	if len(series) != 1 {
		t.Fatalf("got %d series, want 1", len(series))
	}
	s := series[0]
	if s.Rater != 100 || len(s.Points) != 3 {
		t.Fatalf("series = %+v", s)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i-1].Day > s.Points[i].Day {
			t.Fatal("series not chronological")
		}
	}
}

func TestSellerRaterFrequencies(t *testing.T) {
	tr := &trace.Trace{}
	// Seller 1: rater 100 gives 10 ratings, rater 101 gives 2.
	for d := 0; d < 10; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 100, 1, 5))
	}
	tr.Ratings = append(tr.Ratings, mkRating(0, 101, 1, 4), mkRating(1, 101, 1, 4))
	freqs := SellerRaterFrequencies(tr, []trace.NodeID{1, 99}, 10)
	if len(freqs) != 2 {
		t.Fatalf("got %d entries, want 2", len(freqs))
	}
	f := freqs[0]
	if f.Seller != 1 || f.RaterCount != 2 || f.MaxPerRater != 10 || f.MinPerRater != 2 {
		t.Fatalf("frequency = %+v", f)
	}
	if want := (10.0 + 2.0) / 2.0 / 10.0; math.Abs(f.AvgPerDay-want) > 1e-12 {
		t.Fatalf("AvgPerDay = %v, want %v", f.AvgPerDay, want)
	}
	if f.VariancePerR <= 0 {
		t.Fatal("variance should be positive for unequal rater counts")
	}
	if freqs[1].RaterCount != 0 {
		t.Fatalf("unknown seller should have zero raters: %+v", freqs[1])
	}
}

func TestInteractionGraphBasics(t *testing.T) {
	tr := &trace.Trace{}
	addMutual := func(a, b trace.NodeID, n int) {
		for d := 0; d < n; d++ {
			tr.Ratings = append(tr.Ratings, mkRating(d, a, b, 5), mkRating(d, b, a, 5))
		}
	}
	addMutual(1, 2, 15) // 30 combined: edge
	addMutual(3, 4, 5)  // 10 combined: no edge at threshold 20
	for d := 0; d < 25; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 5, 6, 5)) // one-way 25
	}

	g := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20})
	if !g.adj[1][2] || !g.adj[2][1] {
		t.Fatal("missing mutual high-frequency edge")
	}
	if g.adj[3][4] {
		t.Fatal("edge below threshold present")
	}
	if !g.adj[5][6] {
		t.Fatal("one-way edge should exist without RequireMutual")
	}

	gm := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20, RequireMutual: true})
	if gm.adj[5][6] {
		t.Fatal("one-way edge should be dropped with RequireMutual")
	}
	if !gm.adj[1][2] {
		t.Fatal("mutual edge dropped with RequireMutual")
	}
}

func TestGraphComponentsAndTriangles(t *testing.T) {
	tr := &trace.Trace{}
	plant := func(a, b trace.NodeID) {
		for d := 0; d < 25; d++ {
			tr.Ratings = append(tr.Ratings, mkRating(d, a, b, 5))
		}
	}
	plant(1, 2) // pair
	plant(3, 4) // chain 3-4-5
	plant(4, 5) //
	plant(6, 7) // triangle 6-7-8
	plant(7, 8) //
	plant(8, 6) //
	g := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20})

	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3", comps)
	}
	if g.Triangles() != 1 {
		t.Fatalf("triangles = %d, want 1", g.Triangles())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree = %d, want 2", g.MaxDegree())
	}

	structure := g.ClassifyStructure()
	if structure.IsolatedPairs != 1 || structure.ChainComponents != 1 || structure.ClosedGroups != 1 {
		t.Fatalf("structure = %+v", structure)
	}
}

func TestGraphEmptyTrace(t *testing.T) {
	g := BuildInteractionGraph(&trace.Trace{}, GraphOptions{EdgeThreshold: 20})
	if len(g.Nodes()) != 0 || len(g.Edges()) != 0 || g.Triangles() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty trace produced non-empty graph")
	}
	if got := g.ClassifyStructure(); got != (PureParity{}) {
		t.Fatalf("structure of empty graph = %+v", got)
	}
}

func TestGraphEdgesSortedAndSymmetric(t *testing.T) {
	tr := &trace.Trace{}
	for d := 0; d < 25; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 9, 2, 5))
		tr.Ratings = append(tr.Ratings, mkRating(d, 5, 1, 5))
	}
	g := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20})
	edges := g.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge endpoints not ordered: %v", e)
		}
		if !g.adj[e[1]][e[0]] {
			t.Fatalf("edge %v not symmetric", e)
		}
	}
	if edges[0][0] > edges[1][0] {
		t.Fatalf("edges not sorted: %v", edges)
	}
}

// End-to-end: the Section III pipeline re-derives the planted structure of
// a synthetic Amazon trace without seeing the ground truth.
func TestAmazonPipelineRecoversPlantedBoosters(t *testing.T) {
	cfg := trace.DefaultAmazonConfig()
	// Shrink volumes to keep the test fast while preserving structure.
	for i := range cfg.Bands {
		cfg.Bands[i].MeanDailyRatings /= 4
	}
	at, err := trace.GenerateAmazon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := SuspiciousPairs(&at.Trace, 20)

	// Every flagged booster-like pair (a > 0.5) must be a planted booster,
	// and most planted boosters must be recovered.
	planted := 0
	for _, boosters := range at.Truth.Boosters {
		planted += len(boosters)
	}
	recovered := 0
	falsePositives := 0
	for _, p := range res.Pairs {
		if p.A > 0.5 {
			if at.Truth.IsBooster(p.Target, p.Rater) {
				recovered++
			} else {
				falsePositives++
			}
		}
	}
	if planted == 0 {
		t.Fatal("generator planted no boosters")
	}
	if recall := float64(recovered) / float64(planted); recall < 0.9 {
		t.Fatalf("booster recall = %v (%d/%d)", recall, recovered, planted)
	}
	if falsePositives > planted/10 {
		t.Fatalf("too many false positives: %d", falsePositives)
	}
	// The paper's headline statistics: boosters' own positive share is very
	// high while the rest of the ratings skew much lower.
	if res.MeanA < 0.9 {
		t.Fatalf("MeanA = %v, want > 0.9", res.MeanA)
	}
	if res.MeanB > res.MeanA-0.05 {
		t.Fatalf("MeanB = %v not separated from MeanA = %v", res.MeanB, res.MeanA)
	}
}

// End-to-end: Figure 1(d) — planted Overstock pairs appear as edges, the
// structure is pairwise (zero triangles), and chains exist but stay open.
func TestOverstockPipelineStructure(t *testing.T) {
	cfg := trace.DefaultOverstockConfig()
	cfg.Users = 500
	cfg.OrganicTransactions = 3000
	tr, err := trace.GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20, RequireMutual: true})

	for _, p := range tr.Truth.ColludingPairs {
		if !g.adj[p[0]][p[1]] {
			t.Fatalf("planted pair %v not recovered as an edge", p)
		}
	}
	if g.Triangles() != 0 {
		t.Fatalf("triangles = %d, want 0 (C5)", g.Triangles())
	}
	structure := g.ClassifyStructure()
	if structure.ClosedGroups != 0 {
		t.Fatalf("closed groups = %d, want 0", structure.ClosedGroups)
	}
	if structure.IsolatedPairs < cfg.ColludingPairs {
		t.Fatalf("isolated pairs = %d, want >= %d", structure.IsolatedPairs, cfg.ColludingPairs)
	}
	if structure.ChainComponents < cfg.ChainUsers {
		t.Fatalf("chain components = %d, want >= %d", structure.ChainComponents, cfg.ChainUsers)
	}
}

func BenchmarkSuspiciousPairs(b *testing.B) {
	cfg := trace.DefaultAmazonConfig()
	for i := range cfg.Bands {
		cfg.Bands[i].MeanDailyRatings /= 8
	}
	at, err := trace.GenerateAmazon(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SuspiciousPairs(&at.Trace, 20)
	}
}

func BenchmarkBuildInteractionGraph(b *testing.B) {
	cfg := trace.DefaultOverstockConfig()
	cfg.Users = 500
	cfg.OrganicTransactions = 3000
	tr, err := trace.GenerateOverstock(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20, RequireMutual: true})
	}
}

func TestWriteDOT(t *testing.T) {
	tr := &trace.Trace{}
	for d := 0; d < 25; d++ {
		tr.Ratings = append(tr.Ratings, mkRating(d, 1, 2, 5))
		tr.Ratings = append(tr.Ratings, mkRating(d, 3, 4, 5))
	}
	g := BuildInteractionGraph(tr, GraphOptions{EdgeThreshold: 20})
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graph interactions {", "n1 -- n2;", "n3 -- n4;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, out)
		}
	}
}
