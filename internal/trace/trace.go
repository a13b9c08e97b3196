// Package trace models transaction-rating traces and generates synthetic
// ones shaped like the crawls analysed in Section III of the paper.
//
// The paper studies two proprietary datasets: one year of Amazon book-seller
// ratings (about 2.1 million ratings for 97 sellers) and one year of
// Overstock Auctions ratings (about 100,000 users, 450,000 transactions).
// Those crawls are not publicly available, so this package provides
// generators that reproduce the statistical signatures the paper reports —
// the rating-frequency separation between colluding and normal pairs
// (up to ~55/year vs ~15/year max, average 1/year), the score polarity of
// boosters and rivals, the reputation-band structure of sellers, and the
// pairwise interaction structure of suspected colluders — while keeping
// the planted ground truth so detection quality can be scored.
package trace

import (
	"fmt"
	"sort"
)

// NodeID identifies a participant (buyer, seller, or peer) in a trace.
type NodeID int

// Score is a raw feedback score on the Amazon 1..5 scale.
type Score int

// Valid reports whether the score is on the 1..5 scale.
func (s Score) Valid() bool { return s >= 1 && s <= 5 }

// Polarity maps a raw score to the paper's three-valued rating:
// scores 1 and 2 are negative (-1), 3 is neutral (0), 4 and 5 positive (+1).
func (s Score) Polarity() int {
	switch {
	case s <= 2:
		return -1
	case s == 3:
		return 0
	default:
		return 1
	}
}

// DaysPerYear is the length of the observation period used throughout the
// paper's trace analysis; thresholds such as T_N = 20/year refer to it.
const DaysPerYear = 365

// Rating is a single feedback event: rater scored target on a given day
// (days count from the start of the observation window).
type Rating struct {
	Day    int
	Rater  NodeID
	Target NodeID
	Score  Score
}

// Trace is an ordered collection of ratings plus the planted ground truth
// of the generator that produced it (empty for ingested real traces).
type Trace struct {
	Ratings []Rating
	Truth   GroundTruth
}

// GroundTruth records what the generator planted, for scoring detectors.
type GroundTruth struct {
	// ColludingPairs lists mutually boosting pairs (Overstock-style traces).
	ColludingPairs [][2]NodeID
	// Boosters maps a seller to the raters planted to inflate it
	// (Amazon-style traces, where sellers do not rate back).
	Boosters map[NodeID][]NodeID
	// Rivals maps a seller to the raters planted to deflate it.
	Rivals map[NodeID][]NodeID
}

// IsBooster reports whether rater was planted to boost seller.
func (g GroundTruth) IsBooster(seller, rater NodeID) bool {
	for _, r := range g.Boosters[seller] {
		if r == rater {
			return true
		}
	}
	return false
}

// Len returns the number of ratings in the trace.
func (t *Trace) Len() int { return len(t.Ratings) }

// SortByDay orders ratings chronologically (stable within a day).
func (t *Trace) SortByDay() {
	sort.SliceStable(t.Ratings, func(i, j int) bool {
		return t.Ratings[i].Day < t.Ratings[j].Day
	})
}

// Targets returns the distinct targets appearing in the trace, ascending.
func (t *Trace) Targets() []NodeID {
	return t.distinct(func(r Rating) NodeID { return r.Target })
}

// Raters returns the distinct raters appearing in the trace, ascending.
func (t *Trace) Raters() []NodeID {
	return t.distinct(func(r Rating) NodeID { return r.Rater })
}

func (t *Trace) distinct(key func(Rating) NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	for _, r := range t.Ratings {
		seen[key(r)] = true
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reputation computes a target's reputation by the Amazon formula used in
// Section III: positives divided by the total number of ratings. The second
// return is false when the target received no ratings.
func (t *Trace) Reputation(target NodeID) (float64, bool) {
	pos, total := 0, 0
	for _, r := range t.Ratings {
		if r.Target != target {
			continue
		}
		total++
		if r.Score.Polarity() > 0 {
			pos++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(pos) / float64(total), true
}

// PairCounts tallies, for every (rater, target) pair, how many ratings and
// how many positive ratings the rater gave the target.
type PairCounts struct {
	Total    int
	Positive int
	Negative int
	Neutral  int
}

// Pair identifies a directed rater→target relationship.
type Pair struct {
	Rater, Target NodeID
}

// CountPairs aggregates per-directed-pair rating counts for the whole trace.
func (t *Trace) CountPairs() map[Pair]PairCounts {
	out := make(map[Pair]PairCounts)
	for _, r := range t.Ratings {
		p := Pair{r.Rater, r.Target}
		c := out[p]
		c.Total++
		switch r.Score.Polarity() {
		case 1:
			c.Positive++
		case -1:
			c.Negative++
		default:
			c.Neutral++
		}
		out[p] = c
	}
	return out
}

// Validate checks structural well-formedness: scores on the 1..5 scale,
// non-negative days, and no self-ratings. It returns the first problem found.
func (t *Trace) Validate() error {
	for i, r := range t.Ratings {
		if !r.Score.Valid() {
			return fmt.Errorf("trace: rating %d has score %d outside 1..5", i, r.Score)
		}
		if r.Day < 0 {
			return fmt.Errorf("trace: rating %d has negative day %d", i, r.Day)
		}
		if r.Rater == r.Target {
			return fmt.Errorf("trace: rating %d is a self-rating by node %d", i, r.Rater)
		}
	}
	return nil
}
