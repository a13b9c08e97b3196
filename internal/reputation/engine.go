package reputation

// Engine computes a global reputation score for every node from a period's
// ledger. Implementations must not mutate the ledger.
type Engine interface {
	// Scores returns one score per node index. Higher is more trustworthy.
	Scores(l *Ledger) []float64
	// Name identifies the engine in experiment output.
	Name() string
}

// Summation is the eBay/Amazon-style engine of Section IV-A: a node's
// reputation is the sum of all rating values it received (+1/0/-1).
// This is the engine whose algebra yields the optimized detector's
// Formula (1).
type Summation struct{}

// Name implements Engine.
func (Summation) Name() string { return "summation" }

// Scores implements Engine.
func (Summation) Scores(l *Ledger) []float64 {
	out := make([]float64, l.Size())
	for i := range out {
		out[i] = float64(l.SummationScore(i))
	}
	return out
}

// WeightedSum is the scoring the paper describes in Section V:
// R = Σ_j w1·r_j + Σ_p w2·r_p, where r_j is the rating value from normal
// node n_j (weighted w1 = 0.2) and r_p the rating value from pretrusted
// node n_p (weighted w2 = 0.5).
type WeightedSum struct {
	// Pretrusted lists node indices whose ratings carry WPretrusted weight.
	Pretrusted []int
	// WNormal is the weight of ordinary raters (paper: 0.2).
	WNormal float64
	// WPretrusted is the weight of pretrusted raters (paper: 0.5).
	WPretrusted float64
}

// NewWeightedSum returns the engine with the paper's honey-spot parameters
// w1 = 0.2 and w2 = 0.5.
func NewWeightedSum(pretrusted []int) *WeightedSum {
	return &WeightedSum{Pretrusted: pretrusted, WNormal: 0.2, WPretrusted: 0.5}
}

// Name implements Engine.
func (w *WeightedSum) Name() string { return "weighted-sum" }

// Scores implements Engine.
func (w *WeightedSum) Scores(l *Ledger) []float64 {
	n := l.Size()
	weight := make([]float64, n)
	for i := range weight {
		weight[i] = w.WNormal
	}
	for _, p := range w.Pretrusted {
		if p >= 0 && p < n {
			weight[p] = w.WPretrusted
		}
	}
	out := make([]float64, n)
	for target := 0; target < n; target++ {
		// Only the target's active raters contribute; the adjacency is
		// ascending, so the float accumulation order matches the old dense
		// column scan exactly.
		sum := 0.0
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			if d := pc.Pos[k] - pc.Neg[k]; d != 0 {
				sum += weight[r32] * float64(d)
			}
		}
		out[target] = sum
	}
	return out
}

// Normalize scales scores so non-negative mass sums to one, mirroring the
// probability-distribution presentation of the paper's Figures 5-11.
// Negative scores are clamped to zero first. If every score is zero or
// negative the input is returned unchanged (a copy).
func Normalize(scores []float64) []float64 {
	out := make([]float64, len(scores))
	total := 0.0
	for i, s := range scores {
		if s > 0 {
			out[i] = s
			total += s
		}
	}
	if total == 0 {
		copy(out, scores)
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}
