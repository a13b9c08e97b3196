package core

import (
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// ExplainPair reruns the optimized (§IV-C, Formula (2)) screening cascade,
// Optimized.screenPair itself, on one pair as a pure function of the
// ledger — no meter charges, no detector state, no result mutation — and
// returns the full decision record: the first gate the pair stops at (or
// obs.GateFlagged when every gate passes) together with every statistic
// the cascade consults, including the Formula (2) reputation intervals of
// both sides. The pair is normalized to I < J, as in the detectors' own
// audits.
//
// Unlike the detectors, the cascade here is prefixed with the T_R
// candidate screen (gate obs.GateTR): the detectors only ever examine
// pairs whose sides both passed it, so a pair failing T_R was never
// examined at all. The association sweep is NOT modeled — a pair can be
// detected through partnership with an already-flagged colluder even
// though its own cascade stops early — so callers explaining pairs from a
// detection Result must consult the Result first and only fall back to
// ExplainPair for pairs not in it (the service suspicion endpoint does
// exactly this). The converse direction is exact: any pair ExplainPair
// reports as obs.GateFlagged is detected by Optimized.Detect on the same
// ledger and thresholds, which TestExplainPairMatchesDetector pins.
func ExplainPair(l *reputation.Ledger, th Thresholds, i, j int) obs.PairAudit {
	if i > j {
		i, j = j, i
	}
	a := pairAuditFor(l, "explain", i, j, obs.GateTR)
	a.LoI, a.HiI = th.ReputationBounds(a.NI, a.NIJ)
	a.LoJ, a.HiJ = th.ReputationBounds(a.NJ, a.NJI)
	if a.RI >= th.TR && a.RJ >= th.TR {
		o := Optimized{Thresholds: th}
		a.Gate, _ = o.screenPair(l, i, j, a.NIJ, l.PairPositive(i, j))
	}
	return a
}
