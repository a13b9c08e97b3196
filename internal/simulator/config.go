// Package simulator implements the evaluation testbed of Section V: an
// unstructured interest-clustered P2P file-sharing network with pretrusted
// nodes, pairwise colluders and normal nodes, driven in simulation cycles
// of query cycles, with pluggable reputation engines and collusion
// detectors.
//
// The experiment loop follows the paper: in each query cycle every active
// peer issues one file request in one of its interests and picks its
// highest-reputed cluster neighbor with free capacity (ties broken
// uniformly); the server returns an authentic file with its good-behavior
// probability B and the client rates +1 or -1 accordingly; colluding
// pairs additionally exchange ten positive ratings per query cycle; global
// reputations are recomputed once per simulation cycle; and, when a
// detector is attached, detected colluders have their reputation forced to
// zero from then on.
package simulator

import (
	"fmt"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/overlay"
)

// EngineKind selects the reputation engine driving server selection.
type EngineKind int

// Engine kinds.
const (
	// EngineEigenTrust is the damped power-iteration EigenTrust algorithm
	// of reference [9] with a pretrust vector — the comparison system of
	// Figures 5-13. The damping alpha defaults to 0.05 in DefaultConfig
	// (see its comment).
	EngineEigenTrust EngineKind = iota
	// EngineSummation is the plain summation score (used when evaluating
	// the detectors standalone, Figure 8).
	EngineSummation
	// EngineWeightedSum is the flat Section V weighted formula with
	// reputation-independent weights, provided for ablations.
	EngineWeightedSum
	// EngineIterativeWeighted is the Section V weighted scoring with
	// reputation-dependent rater weights updated each cycle, provided for
	// ablations.
	EngineIterativeWeighted
	// EngineSimilarity is the PeerTrust-style feedback-similarity
	// credibility engine (references [26]/[21]), provided for ablations.
	EngineSimilarity
)

// String implements fmt.Stringer.
func (k EngineKind) String() string {
	switch k {
	case EngineEigenTrust:
		return "eigentrust"
	case EngineSummation:
		return "summation"
	case EngineIterativeWeighted:
		return "iterative-weighted"
	case EngineSimilarity:
		return "similarity-weighted"
	default:
		return "weighted-sum"
	}
}

// DetectorKind selects the collusion detector attached to the system.
type DetectorKind int

// Detector kinds.
const (
	// DetectorNone runs the reputation system bare.
	DetectorNone DetectorKind = iota
	// DetectorBasic is the unoptimized O(mn²) method.
	DetectorBasic
	// DetectorOptimized is the Formula (2) O(mn) method.
	DetectorOptimized
	// DetectorGroup is the strongly-connected-component group detector
	// (the paper's future-work extension to collectives of > 2 nodes).
	DetectorGroup
	// DetectorSybil is the one-way boosting-swarm detector (the paper's
	// future-work Sybil-attack case).
	DetectorSybil
)

// String implements fmt.Stringer.
func (k DetectorKind) String() string {
	switch k {
	case DetectorNone:
		return "none"
	case DetectorBasic:
		return "unoptimized"
	case DetectorGroup:
		return "group"
	case DetectorSybil:
		return "sybil"
	default:
		return "optimized"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// Seed makes the run reproducible; averaged experiments perturb it.
	Seed uint64
	// Overlay configures the interest-clustered network (paper: 200 nodes,
	// 20 categories, 1-5 interests, capacity 50).
	Overlay overlay.Config
	// Pretrusted lists pretrusted node indices (paper: IDs 1-3, here 0-2).
	Pretrusted []int
	// Colluders lists colluder node indices; they are paired consecutively
	// (paper: IDs 4-11, pairs (4,5), (6,7), ...).
	Colluders []int
	// CompromisedPairs lists (pretrusted, colluder) pairs that collude
	// mutually, reproducing the Figure 7/11 scenario.
	CompromisedPairs [][2]int
	// ColluderRings lists collusion collectives of three or more nodes
	// that flood ratings around a directed ring (member i rates member
	// i+1), the group structure pairwise detection cannot see. Members
	// must not appear in Colluders or Pretrusted.
	ColluderRings [][]int
	// SybilSwarms lists one-way boosting swarms: the first element of each
	// swarm is the beneficiary, the remaining elements are fake booster
	// identities that flood it with positive ratings every query cycle.
	// Members must not appear in any other role.
	SybilSwarms [][]int
	// Rivals lists badmouthing attacks: each pair is (attacker, victim),
	// with the attacker flooding the victim with negative ratings every
	// query cycle — the "rater 1" archetype of Figure 1(b). Attackers and
	// victims behave normally otherwise and may not hold other roles.
	Rivals [][2]int
	// ColluderGoodProb is B: the probability a colluder serves an
	// authentic file (paper: 0.6 and 0.2).
	ColluderGoodProb float64
	// NormalGoodProb is the probability a normal node serves an authentic
	// file (paper: 0.8).
	NormalGoodProb float64
	// ActiveProbRange bounds each node's per-query-cycle activity
	// probability (paper: [0.3, 0.8]).
	ActiveProbRange [2]float64
	// SimCycles is the number of simulation cycles (paper: 20).
	SimCycles int
	// QueryCycles is the number of query cycles per simulation cycle
	// (paper: 20).
	QueryCycles int
	// CollusionRatings is how many positive ratings each colluder sends
	// its partner per query cycle (paper: 10).
	CollusionRatings int
	// WindowCycles, when positive, evaluates reputations and detection
	// over a sliding window of the last WindowCycles simulation cycles
	// (the literal per-period-T semantics of Table I) instead of the
	// cumulative run history.
	WindowCycles int
	// CollusionStartCycle is the 1-based simulation cycle at which
	// colluders begin their rating floods; 0 or 1 means from the start.
	// Later onsets model attackers who first build honest reputations
	// (used by the detection-latency ablation).
	CollusionStartCycle int
	// ExplorationProb is the probability a client picks a uniformly random
	// capable neighbor instead of the highest-reputed one. The paper's
	// selection rule is strictly greedy (0), but greedy selection is not
	// ergodic: nodes stuck at reputation zero never serve again, so which
	// colluder pairs prosper becomes a race decided in the first cycle.
	// The EigenTrust paper itself prescribes ~10% probabilistic selection
	// for exactly this reason (Kamvar et al., Section 4.4), and the
	// figure harness uses 0.1 to make the Figure 5-12 shapes
	// seed-robust.
	ExplorationProb float64
	// Engine selects the reputation engine.
	Engine EngineKind
	// EigenTrustAlpha overrides the EigenTrust pretrust damping
	// (0 keeps the reputation package default).
	EigenTrustAlpha float64
	// Detector selects the collusion detector (DetectorNone for bare runs).
	Detector DetectorKind
	// Thresholds parameterize the detector; zero value selects
	// core.DefaultThresholds.
	Thresholds core.Thresholds
	// Workers sets the number of goroutines used by the parallelizable
	// stages inside a run — currently the EigenTrust matrix build and
	// power iteration. 0 sizes the fan-out automatically from GOMAXPROCS
	// and the matrix size (paper-scale networks stay sequential), 1
	// selects the sequential paths, and negative values are rejected.
	// Every worker count produces bit-identical results; see the
	// reputation.EigenTrust.Workers documentation for why.
	Workers int
	// IngestShards, when >= 1, routes each cycle's ratings through the
	// internal/ingest sharded pipeline: the cycle's batch is partitioned
	// across IngestShards writer goroutines before reputations update. 0
	// records the batch directly on one writer. Either way ratings buffer
	// during the query cycles and reach the ledger at the cycle boundary,
	// the only time it is read, and the ingest determinism contract makes
	// every value >= 1 produce byte-identical ledgers, results and traces
	// (values 0 and >= 1 differ only by the ingest_audit trace events the
	// pipeline emits).
	IngestShards int
	// Meter, if non-nil, accumulates operation costs across the run.
	Meter *metrics.CostMeter
	// OnCycle, if non-nil, observes the simulation after every cycle's
	// reputation update and detection pass: the 1-based cycle number and
	// the current scores (detected colluders already zeroed). The slice is
	// reused between calls; copy it to retain.
	OnCycle func(cycle int, scores []float64)
	// OnRating, if non-nil, observes every rating as it is recorded —
	// the feed a live decentralized deployment would receive.
	OnRating func(rater, target, polarity int)
	// Tracer, if enabled, receives the structured run trace: a run_start
	// event, one cycle_summary per simulation cycle, and the decision
	// audits of the configured detector. Events are stamped with the
	// simulation cycle, never the wall clock, so a seeded run produces a
	// byte-identical trace on every replay. A nil tracer costs nothing.
	// Unlike OnCycle/OnRating, a tracer does not force averaged runs
	// sequential: RunAveragedParallel forks one buffered child per run and
	// joins them in run order.
	Tracer *obs.Tracer
	// Obs, if non-nil, collects run histograms: EigenTrust iteration
	// counts per scoring pass and the rating-pair frequency distribution
	// of the final period ledger (the final window when windowed). Runs
	// only record into histograms (atomic, order-independent), never set
	// gauges, so one registry may be shared by concurrent averaged runs.
	Obs *obs.Registry
	// Spans, if enabled, receives the hierarchical span timeline: a run
	// span wrapping one cycle span per simulation cycle, each bracketing
	// the ingest, window.roll, reputation-engine and detect phases. Span
	// payloads are deterministic (cost-meter deltas, dirty-row counts,
	// memo hit/miss deltas), so a seeded run's timeline is byte-identical
	// on every replay, for every Workers and IngestShards value. The span
	// tracer is stateful and not concurrency-safe, so — unlike Tracer — an
	// attached one forces RunAveragedParallel sequential, like OnCycle.
	Spans *obs.SpanTracer
	// Progress, if non-nil, receives one per-cycle registry-delta line
	// after each cycle's detection pass — the streaming counterpart of the
	// post-run metrics export. Like Spans it forces averaged runs
	// sequential: the reporter diffs against its previous cycle's
	// snapshot, which interleaved runs would corrupt.
	Progress *obs.Progress
	// CycleTimer, if non-nil, brackets every per-cycle detection pass.
	// Implementations that read the wall clock live in internal/obs/prof,
	// outside the seeded trees; timing never feeds back into the
	// simulation or its trace.
	CycleTimer obs.TimerFunc
}

// SimThresholds returns detection thresholds calibrated to the Section V
// simulation rather than the Amazon trace. In the simulation the outside
// positive share b is about B (0.6 or 0.2) for colluders and about 0.8 for
// normal nodes, so T_b sits between them at 0.7; colluding partners rate
// each other all-positively, so T_a = 0.95 separates them from the 0.8
// background. T_N = 20 per period and T_R = 1 follow the paper.
func SimThresholds() core.Thresholds {
	return core.Thresholds{TR: 1, TN: 20, Ta: 0.95, Tb: 0.7}
}

// DefaultConfig returns the paper's Figure 5 setup: 200 nodes, pretrusted
// {0,1,2}, colluders {3..10}, B=0.6, EigenTrust, no detector.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Overlay:          overlay.DefaultConfig(),
		Pretrusted:       []int{0, 1, 2},
		Colluders:        []int{3, 4, 5, 6, 7, 8, 9, 10},
		ColluderGoodProb: 0.6,
		NormalGoodProb:   0.8,
		ActiveProbRange:  [2]float64{0.3, 0.8},
		SimCycles:        20,
		QueryCycles:      20,
		CollusionRatings: 10,
		ExplorationProb:  0.1,
		Engine:           EngineEigenTrust,
		// A damping of 0.05 gives colluding pairs the trust-sink
		// amplification the paper's Figure 5 exhibits (mutual local trust
		// retains (1-alpha) of inflow per iteration, so lower damping
		// amplifies pairs more) while keeping the pretrust floor strong
		// enough for Figures 6-7.
		EigenTrustAlpha: 0.05,
		Detector:        DetectorNone,
		Thresholds:      SimThresholds(),
	}
}

// Validate reports the first invalid parameter, if any.
func (c Config) Validate() error {
	if err := c.Overlay.Validate(); err != nil {
		return err
	}
	n := c.Overlay.Nodes
	seen := make(map[int]bool)
	for _, p := range c.Pretrusted {
		if p < 0 || p >= n {
			return fmt.Errorf("simulator: pretrusted node %d outside [0,%d)", p, n)
		}
		if seen[p] {
			return fmt.Errorf("simulator: node %d listed twice", p)
		}
		seen[p] = true
	}
	for _, cl := range c.Colluders {
		if cl < 0 || cl >= n {
			return fmt.Errorf("simulator: colluder %d outside [0,%d)", cl, n)
		}
		if seen[cl] {
			return fmt.Errorf("simulator: node %d listed twice", cl)
		}
		seen[cl] = true
	}
	if len(c.Colluders)%2 != 0 {
		return fmt.Errorf("simulator: %d colluders cannot be paired", len(c.Colluders))
	}
	for _, ring := range c.ColluderRings {
		if len(ring) < 3 {
			return fmt.Errorf("simulator: colluder ring %v has fewer than 3 members", ring)
		}
		for _, m := range ring {
			if m < 0 || m >= n {
				return fmt.Errorf("simulator: ring member %d outside [0,%d)", m, n)
			}
			if seen[m] {
				return fmt.Errorf("simulator: node %d listed twice", m)
			}
			seen[m] = true
		}
	}
	for _, swarm := range c.SybilSwarms {
		if len(swarm) < 3 {
			return fmt.Errorf("simulator: sybil swarm %v needs a beneficiary and at least 2 boosters", swarm)
		}
		for _, m := range swarm {
			if m < 0 || m >= n {
				return fmt.Errorf("simulator: swarm member %d outside [0,%d)", m, n)
			}
			if seen[m] {
				return fmt.Errorf("simulator: node %d listed twice", m)
			}
			seen[m] = true
		}
	}
	for _, rv := range c.Rivals {
		for _, m := range rv {
			if m < 0 || m >= n {
				return fmt.Errorf("simulator: rival participant %d outside [0,%d)", m, n)
			}
			if seen[m] {
				return fmt.Errorf("simulator: node %d listed twice", m)
			}
			seen[m] = true
		}
	}
	for _, cp := range c.CompromisedPairs {
		if !contains(c.Pretrusted, cp[0]) {
			return fmt.Errorf("simulator: compromised pair %v: %d is not pretrusted", cp, cp[0])
		}
		if !contains(c.Colluders, cp[1]) {
			return fmt.Errorf("simulator: compromised pair %v: %d is not a colluder", cp, cp[1])
		}
	}
	if c.ColluderGoodProb < 0 || c.ColluderGoodProb > 1 {
		return fmt.Errorf("simulator: ColluderGoodProb = %v outside [0,1]", c.ColluderGoodProb)
	}
	if c.NormalGoodProb < 0 || c.NormalGoodProb > 1 {
		return fmt.Errorf("simulator: NormalGoodProb = %v outside [0,1]", c.NormalGoodProb)
	}
	lo, hi := c.ActiveProbRange[0], c.ActiveProbRange[1]
	if lo < 0 || hi > 1 || hi < lo {
		return fmt.Errorf("simulator: ActiveProbRange = [%v,%v] invalid", lo, hi)
	}
	if c.SimCycles < 1 || c.QueryCycles < 1 {
		return fmt.Errorf("simulator: cycles = %d×%d, want >= 1 each", c.SimCycles, c.QueryCycles)
	}
	if c.CollusionRatings < 0 {
		return fmt.Errorf("simulator: CollusionRatings = %d, want >= 0", c.CollusionRatings)
	}
	if c.ExplorationProb < 0 || c.ExplorationProb > 1 {
		return fmt.Errorf("simulator: ExplorationProb = %v outside [0,1]", c.ExplorationProb)
	}
	if c.WindowCycles < 0 {
		return fmt.Errorf("simulator: WindowCycles = %d, want >= 0", c.WindowCycles)
	}
	if c.Workers < 0 {
		return fmt.Errorf("simulator: Workers = %d, want >= 0", c.Workers)
	}
	if c.IngestShards < 0 {
		return fmt.Errorf("simulator: IngestShards = %d, want >= 0", c.IngestShards)
	}
	if c.CollusionStartCycle < 0 || c.CollusionStartCycle > c.SimCycles {
		return fmt.Errorf("simulator: CollusionStartCycle = %d outside [0,%d]",
			c.CollusionStartCycle, c.SimCycles)
	}
	if c.Detector != DetectorNone {
		if err := c.thresholds().Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (c Config) thresholds() core.Thresholds {
	if c.Thresholds == (core.Thresholds{}) {
		return core.DefaultThresholds()
	}
	return c.Thresholds
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
