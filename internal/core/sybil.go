package core

import (
	"sort"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// Sybil-style boosting is the second future-work case the paper names: an
// attacker manufactures many cheap identities that all flood one
// beneficiary with positive ratings. Unlike pair or ring collusion the
// relationship is one-way — the fake identities never need reputations of
// their own, so neither the reciprocity test of the pairwise methods nor
// the strongly-connected structure of the group detector can fire.
//
// The Sybil detector keeps the collusion model's economics but drops
// reciprocity:
//
//   - C1: the beneficiary is high-reputed;
//   - C3+C4: at least MinBoosters distinct raters each rate the
//     beneficiary frequently (>= TN) and almost always positively (>= Ta)
//     — a single such rater is the pairwise detectors' business, but a
//     swarm of them is the Sybil signature (honest popularity shows up as
//     many low-frequency raters instead: the Amazon trace's organic
//     buyer-seller pairs average one rating per year);
//   - C2: excluding the flooding swarm, the beneficiary's remaining
//     ratings are mostly negative (< Tb), i.e. its reputation is
//     manufactured by the swarm.
//
// The booster identities themselves need no reputation screen — they are
// throwaways by construction.

// SybilFinding is one detected boosting swarm.
type SybilFinding struct {
	// Target is the boosted beneficiary.
	Target int
	// Boosters lists the flooding rater identities, ascending.
	Boosters []int
	// BoosterRatings is the total number of ratings the boosters gave the
	// target during the period.
	BoosterRatings int
	// OutsidePositiveShare is the positive share of the target's ratings
	// from everyone except the boosters; zero when no such ratings exist.
	OutsidePositiveShare float64
}

// SybilResult is the outcome of Sybil detection.
type SybilResult struct {
	// Findings lists detected swarms ordered by target.
	Findings []SybilFinding
	// Flagged[i] reports whether node i is a detected beneficiary or
	// booster.
	Flagged []bool
}

// SybilDetector finds one-way boosting swarms.
type SybilDetector struct {
	Thresholds Thresholds
	// MinBoosters is the minimum swarm size (default 3; smaller swarms
	// either are pairs — the pairwise methods' case — or provide too
	// little boost to matter).
	MinBoosters int
	// MinConcentration is the minimum share of a booster's outgoing
	// ratings that must go to the beneficiary (default 0.5). Fake
	// identities exist solely to boost, so their concentration is near 1;
	// an honest node's loyal customers also rate the other servers they
	// use, which keeps their concentration low and prevents popular
	// honest nodes from being mistaken for beneficiaries.
	MinConcentration float64
	// Meter, if non-nil, accumulates metrics.CostPairCheck per examined
	// rater and metrics.CostMatrixScan per outside-share scan.
	Meter *metrics.CostMeter
	// Trace, if enabled, receives sybil_rater events for rated
	// (target, rater) relationships (which gate disqualified the rater as
	// a booster) and one sybil_audit decision per candidate beneficiary.
	Trace *obs.Tracer
}

// Default Sybil-detector parameters.
const (
	DefaultMinBoosters      = 3
	DefaultMinConcentration = 0.5
)

// NewSybilDetector returns a Sybil detector with the given thresholds.
func NewSybilDetector(t Thresholds) *SybilDetector {
	return &SybilDetector{
		Thresholds:       t,
		MinBoosters:      DefaultMinBoosters,
		MinConcentration: DefaultMinConcentration,
	}
}

// Name identifies the method in experiment output.
func (d *SybilDetector) Name() string { return "sybil" }

// Detect derives high-reputed candidates from summation scores and
// searches them for boosting swarms.
func (d *SybilDetector) Detect(l *reputation.Ledger) SybilResult {
	auditCandidates(d.Trace, d.Name(), l, d.Thresholds.TR)
	return d.DetectAmong(l, summationCandidates(l, d.Thresholds.TR))
}

// DetectAmong searches only the given candidate beneficiaries.
func (d *SybilDetector) DetectAmong(l *reputation.Ledger, candidates []int) SybilResult {
	n := l.Size()
	res := SybilResult{Flagged: make([]bool, n)}
	minBoosters := d.MinBoosters
	if minBoosters < 1 {
		minBoosters = DefaultMinBoosters
	}
	minConc := d.MinConcentration
	if minConc <= 0 {
		minConc = DefaultMinConcentration
	}
	seen := make(map[int]bool, len(candidates))
	var targets []int
	for _, c := range candidates {
		if c >= 0 && c < n && !seen[c] {
			seen[c] = true
			targets = append(targets, c)
		}
	}
	sort.Ints(targets)

	tracing := d.Trace.Enabled()
	for _, target := range targets {
		var boosters []int
		boosterRatings := 0
		// The booster scan conceptually examines every other node's rating
		// relationship with the target (charged in bulk as the dense scan
		// would); unrated relationships stop at the frequency gate
		// unaudited — they carry no information and would dominate the
		// trace volume — so only the target's adjacency needs visiting.
		d.charge(metrics.CostPairCheck, int64(n-1))
		pc := l.PairCountsOf(target)
		for k, r32 := range pc.Raters {
			rater := int(r32)
			cnt := int(pc.Total[k])
			if cnt < d.Thresholds.TN {
				if tracing {
					d.auditRater(l, target, rater, cnt, obs.GateTN)
				}
				continue
			}
			if float64(pc.Pos[k])/float64(cnt) < d.Thresholds.Ta {
				if tracing {
					d.auditRater(l, target, rater, cnt, obs.GateTA)
				}
				continue
			}
			// Fake identities concentrate their ratings on the
			// beneficiary; honest frequent customers spread theirs.
			if out := l.OutgoingTotal(rater); out == 0 ||
				float64(cnt)/float64(out) < minConc {
				if tracing {
					d.auditRater(l, target, rater, cnt, "concentration")
				}
				continue
			}
			if tracing {
				d.auditRater(l, target, rater, cnt, "booster")
			}
			boosters = append(boosters, rater)
			boosterRatings += cnt
		}
		if len(boosters) < minBoosters {
			if tracing && len(boosters) > 0 {
				d.Trace.Emit("sybil_audit",
					obs.Str("detector", d.Name()),
					obs.Int("target", target),
					obs.Int("boosters", len(boosters)),
					obs.Int("min_boosters", minBoosters),
					obs.Int("booster_ratings", boosterRatings),
					obs.Float("outside_share", -1),
					obs.Str("gate", "min_boosters"))
			}
			continue
		}
		// Outside test over everyone except the swarm.
		inSwarm := make(map[int]bool, len(boosters))
		for _, b := range boosters {
			inSwarm[b] = true
		}
		outTotal, outPos := 0, 0
		for k, r32 := range pc.Raters {
			if inSwarm[int(r32)] {
				continue
			}
			outTotal += int(pc.Total[k])
			outPos += int(pc.Pos[k])
		}
		d.charge(metrics.CostMatrixScan, int64(n))
		share := 0.0
		if outTotal > 0 {
			share = float64(outPos) / float64(outTotal)
		}
		corroborated := outTotal > 0 && share >= d.Thresholds.Tb
		if tracing {
			gate := obs.GateFlagged
			if corroborated {
				gate = obs.GateTBOutside
			}
			d.Trace.Emit("sybil_audit",
				obs.Str("detector", d.Name()),
				obs.Int("target", target),
				obs.Int("boosters", len(boosters)),
				obs.Int("min_boosters", minBoosters),
				obs.Int("booster_ratings", boosterRatings),
				obs.Float("outside_share", share),
				obs.Str("gate", gate))
		}
		if corroborated {
			continue // the outside world corroborates the reputation
		}
		finding := SybilFinding{
			Target:               target,
			Boosters:             boosters,
			BoosterRatings:       boosterRatings,
			OutsidePositiveShare: share,
		}
		res.Findings = append(res.Findings, finding)
		res.Flagged[target] = true
		for _, b := range boosters {
			res.Flagged[b] = true
		}
	}
	return res
}

func (d *SybilDetector) charge(name string, n int64) {
	if d.Meter != nil {
		d.Meter.Add(name, n)
	}
}

// auditRater emits one sybil_rater event for a rated (target, rater)
// relationship, recording which booster gate the rater stopped at.
func (d *SybilDetector) auditRater(l *reputation.Ledger, target, rater, cnt int, gate string) {
	conc := 0.0
	if out := l.OutgoingTotal(rater); out > 0 {
		conc = float64(cnt) / float64(out)
	}
	d.Trace.Emit("sybil_rater",
		obs.Str("detector", d.Name()),
		obs.Int("target", target),
		obs.Int("rater", rater),
		obs.Int("n", cnt),
		obs.Float("a", float64(l.PairPositive(target, rater))/float64(cnt)),
		obs.Float("concentration", conc),
		obs.Str("gate", gate))
}
