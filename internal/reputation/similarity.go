package reputation

import (
	"math"

	"github.com/p2psim/collusion/internal/metrics"
)

// SimilarityWeighted implements the feedback-credibility idea of PeerTrust
// and TrustGuard (the paper's references [26] and [21], its related-work
// group of collusion mitigations): a rater's feedback is weighed by how
// well its opinions agree with everyone else's. For each rater v the
// engine compares v's per-target positive shares against the consensus
// (all-rater) shares over the targets v actually rated, converts the
// root-mean-square deviation into a credibility weight
//
//	Cr(v) = 1 − RMSD(v, consensus) ∈ [0, 1],
//
// and scores each node as the credibility-weighted sum of its received
// ratings, normalized to a distribution.
//
// Collusion is dampened because boosters systematically deviate from
// consensus on their beneficiaries (they rate 1.0 where the crowd rates
// low), which costs them credibility — but it is a mitigation, not a
// detection: the colluders are discounted, never identified. The engine
// exists as a comparison baseline for the ablation study.
type SimilarityWeighted struct {
	// MinOverlap is the minimum number of rated targets before a rater's
	// similarity is trusted; raters below it get NeutralCredibility.
	// The zero value selects 2.
	MinOverlap int
	// NeutralCredibility is the weight for raters with too little history
	// to compare. The zero value selects 0.5.
	NeutralCredibility float64
	// Meter, if non-nil, is charged one metrics.CostEigenMulAdd per
	// matrix element visited.
	Meter *metrics.CostMeter
}

// NewSimilarityWeighted returns the engine with default parameters.
func NewSimilarityWeighted() *SimilarityWeighted {
	return &SimilarityWeighted{}
}

// Name implements Engine.
func (e *SimilarityWeighted) Name() string { return "similarity-weighted" }

func (e *SimilarityWeighted) params() (minOverlap int, neutral float64) {
	minOverlap = e.MinOverlap
	if minOverlap == 0 {
		minOverlap = 2
	}
	neutral = e.NeutralCredibility
	if neutral == 0 {
		neutral = 0.5
	}
	return minOverlap, neutral
}

// Scores implements Engine.
func (e *SimilarityWeighted) Scores(l *Ledger) []float64 {
	n := l.Size()
	credibility := e.credibilityWeights(l)

	// Credibility-weighted summation: only the target's active raters have
	// nonzero local trust, and the ascending adjacency keeps the float
	// accumulation order of the old dense column scan.
	raw := make([]float64, n)
	for target := 0; target < n; target++ {
		sum := 0.0
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			if d := pc.Pos[k] - pc.Neg[k]; d != 0 {
				sum += credibility[r32] * float64(d)
			}
		}
		raw[target] = sum
	}
	if e.Meter != nil {
		e.Meter.Add(metrics.CostEigenMulAdd, int64(n)*int64(n))
	}
	return Normalize(raw)
}

// consensusShares returns each target's all-rater positive share (zero for
// unrated targets).
func consensusShares(l *Ledger) []float64 {
	consensus := make([]float64, l.Size())
	for target := range consensus {
		if total := l.TotalFor(target); total > 0 {
			consensus[target] = float64(l.PositiveFor(target)) / float64(total)
		}
	}
	return consensus
}

// credibilityWeights computes Cr(v) per rater. The ledger stores counts by
// target row, so the per-rater view is a CSR transpose of the rated pairs,
// built in one O(n + nnz) pass. Scanning targets in ascending order
// appends each rater's rated targets ascending, so the deviation sums
// accumulate in exactly the order of the old dense column scan (a rated
// pair implies the target has ratings, hence a consensus share, and
// self-rated pairs cannot exist — the two skips the dense scan needed).
func (e *SimilarityWeighted) credibilityWeights(l *Ledger) []float64 {
	n := l.Size()
	minOverlap, neutral := e.params()
	consensus := consensusShares(l)
	off := make([]int, n+1)
	for target := 0; target < n; target++ {
		pc := l.PairCountsOf(target)
		for _, r32 := range pc.Raters {
			off[int(r32)+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	// Each transposed edge carries the rater's positive share for that
	// target minus the consensus — all the deviation pass needs.
	dev := make([]float64, off[n])
	fill := make([]int, n)
	copy(fill, off[:n])
	for target := 0; target < n; target++ {
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			at := fill[r32]
			dev[at] = float64(pc.Pos[k])/float64(pc.Total[k]) - consensus[target]
			fill[r32] = at + 1
		}
	}

	out := make([]float64, n)
	for rater := 0; rater < n; rater++ {
		sumSq := 0.0
		for at := off[rater]; at < off[rater+1]; at++ {
			sumSq += dev[at] * dev[at]
		}
		overlap := off[rater+1] - off[rater]
		if e.Meter != nil {
			e.Meter.Add(metrics.CostEigenMulAdd, int64(n))
		}
		if overlap < minOverlap {
			out[rater] = neutral
			continue
		}
		out[rater] = 1 - math.Sqrt(sumSq/float64(overlap))
		if out[rater] < 0 {
			out[rater] = 0
		}
	}
	return out
}
