// Package core implements the paper's contribution: the collusion
// detection methods of Section IV.
//
// Both detectors consume a period's rating ledger and flag pairs of nodes
// that match the collusion model built from characteristics C1-C5: two
// high-reputed nodes (C1, C5) that rate each other frequently (C4) and
// almost always positively (C3), while the rest of the network rates them
// mostly negatively (C2).
//
//   - The basic ("Unoptimized") detector follows Section IV-B literally:
//     for every high-reputed node it examines each rater and, when the
//     rater is frequent and positive, re-scans the node's whole matrix row
//     to compute the outside positive share b. Complexity O(mn²)
//     (Proposition 4.1).
//
//   - The optimized detector (Section IV-C) replaces the row re-scan with
//     the closed-form reputation bounds of Formula (2), derived from the
//     summation reputation identity of Formula (1). Checking a candidate
//     needs only R_i, N_i and N_(i,j). Complexity O(mn)
//     (Proposition 4.2).
//
// The detectors report the same pairs on the workloads the paper studies;
// formally, every pair the basic method flags is also flagged by the
// optimized method whenever ratings are strictly ±1 (see the package
// tests for the proof-by-property).
package core

import "fmt"

// Thresholds holds the detection parameters of Section IV-B.
type Thresholds struct {
	// TR is the high-reputation threshold: only nodes whose summation
	// reputation is at least TR are examined (colluders seek high
	// reputation, C1).
	TR float64
	// TN is the rating-frequency threshold per period T (paper: 20/year
	// from the Amazon trace, C4).
	TN int
	// Ta is the minimum positive share of the suspect rater's ratings
	// (C3). The trace analysis measured a ≈ 0.98 for suspects.
	Ta float64
	// Tb is the maximum positive share of everyone else's ratings (C2).
	// The trace analysis measured b ≈ 0.016 for suspects.
	Tb float64
	// StrictReverse selects the literal Section IV algorithm, which
	// repeats the outside-share test (b < Tb) on the partner's side.
	//
	// The default (false) drops that second outside-share test: a pair is
	// flagged when one member's reputation is manufactured by the other
	// (frequency, a >= Ta, b < Tb) and the reciprocal rating relationship
	// is also frequent and almost-always positive. The literal rule cannot
	// reproduce Figure 11 — a compromised pretrusted node serves honestly,
	// so its own outside ratings stay positive and the second b-test always
	// clears it — whereas the paper reports compromised pretrusted nodes
	// being detected and zeroed. Reciprocating a reputation-manufacturing
	// relationship is itself the collusion signature, so the relaxed
	// reverse test preserves the model while matching the reported
	// behavior.
	StrictReverse bool
}

// DefaultThresholds returns the parameters used throughout the paper's
// evaluation: T_N = 20 per period, with T_a and T_b placed conservatively
// between the measured colluder statistics (a≈0.98, b≈0.02) and normal
// behavior. TR defaults to 1: any node with positive summation reputation
// is worth examining; hosts with their own trust scale pass candidates
// explicitly via DetectAmong.
func DefaultThresholds() Thresholds {
	return Thresholds{TR: 1, TN: 20, Ta: 0.8, Tb: 0.2}
}

// Validate reports the first invalid parameter, if any.
func (t Thresholds) Validate() error {
	if t.TN < 1 {
		return fmt.Errorf("core: TN = %d, want >= 1", t.TN)
	}
	if t.Ta < 0 || t.Ta > 1 {
		return fmt.Errorf("core: Ta = %v outside [0,1]", t.Ta)
	}
	if t.Tb < 0 || t.Tb > 1 {
		return fmt.Errorf("core: Tb = %v outside [0,1]", t.Tb)
	}
	if t.Ta <= t.Tb {
		return fmt.Errorf("core: Ta (%v) must exceed Tb (%v) to separate colluders from the crowd", t.Ta, t.Tb)
	}
	return nil
}

// ReputationBounds returns the Formula (2) interval [lo, hi]: if the
// rater's positive share is at least Ta and everyone else's share is at
// most Tb, the node's summation reputation must lie within it.
func (t Thresholds) ReputationBounds(ni, nij int) (lo, hi float64) {
	lo = 2*t.Ta*float64(nij) - float64(ni)
	hi = 2*t.Tb*float64(ni-nij) + 2*float64(nij) - float64(ni)
	return lo, hi
}

// BoundsHold reports whether reputation r satisfies Formula (2) for the
// given totals, i.e. whether the node's reputation is consistent with
// being propped up by the single rater.
func (t Thresholds) BoundsHold(r float64, ni, nij int) bool {
	lo, hi := t.ReputationBounds(ni, nij)
	return r >= lo && r <= hi
}
