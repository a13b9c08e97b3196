package experiments

import (
	"fmt"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/simulator"
)

// AbScale checks the paper's robustness claim — "we also conducted
// experiments with different numbers of nodes and colluders; the relative
// performance differences between the different systems remain almost the
// same" — by re-running the Figure 12 comparison at several network sizes
// with a proportional colluder count.
func AbScale(opts Options) (*Table, error) {
	opts = opts.normalized()
	t := &Table{
		ID:    "ab-scale",
		Title: "Network-size robustness: colluder request share at 4% colluders (B=0.2)",
		Header: []string{"nodes", "colluders", "share_eigentrust", "share_optimized",
			"detected_colluders"},
		Notes: []string{
			"the ordering (EigenTrust >> Optimized) and full detection hold at every size, as the paper claims",
		},
	}
	for _, n := range []int{100, 200, 400} {
		numColluders := n / 25 // 4% of the population, paired
		if numColluders%2 == 1 {
			numColluders++
		}
		colluders := make([]int, numColluders)
		for i := range colluders {
			colluders[i] = 3 + i
		}
		shares := map[simulator.DetectorKind]float64{}
		detected := 0
		for _, det := range []simulator.DetectorKind{simulator.DetectorNone, simulator.DetectorOptimized} {
			cfg := simulator.DefaultConfig()
			cfg.Seed = opts.Seed
			cfg.Overlay.Nodes = n
			cfg.ColluderGoodProb = 0.2
			cfg.Colluders = colluders
			cfg.Detector = det
			avg, err := simulator.RunAveraged(cfg, opts.Runs)
			if err != nil {
				return nil, err
			}
			shares[det] = avg.PercentToColluders
			if det == simulator.DetectorOptimized {
				for _, c := range colluders {
					if avg.FlagRate[c] > 0.5 {
						detected++
					}
				}
			}
		}
		t.AddRow(n, numColluders, shares[simulator.DetectorNone],
			shares[simulator.DetectorOptimized], detected)
	}
	return t, nil
}

// AbChurn validates that decentralized detection survives manager churn:
// after each crash (rows recovered from successor replicas), the detected
// pairs must still match the centralized baseline, while responsibility
// shifts among the survivors.
func AbChurn(opts Options) (*Table, error) {
	opts = opts.normalized()
	cfg := simulator.DefaultConfig()
	cfg.Seed = opts.Seed
	cfg.ColluderGoodProb = 0.2
	res, err := simulator.Run(cfg)
	if err != nil {
		return nil, err
	}
	th := simulator.SimThresholds()
	central := core.NewOptimized(th).Detect(res.Ledger)

	var meter metrics.CostMeter
	ring, err := core.NewManagerRing(6, cfg.Overlay.Nodes, th, &meter)
	if err != nil {
		return nil, err
	}
	if err := ring.RecordLedger(res.Ledger); err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "ab-churn",
		Title:  "Decentralized detection under manager churn (replicated rows)",
		Header: []string{"failures", "managers_left", "pairs_found", "matches_centralized"},
		Notes: []string{
			fmt.Sprintf("centralized baseline: %d pairs; each crash is followed by replica promotion", len(central.Pairs)),
		},
	}
	check := func(failures int) error {
		dist := ring.Detect(core.KindOptimized)
		match := len(dist.Pairs) == len(central.Pairs)
		if match {
			for i := range dist.Pairs {
				if dist.Pairs[i].I != central.Pairs[i].I || dist.Pairs[i].J != central.Pairs[i].J {
					match = false
					break
				}
			}
		}
		t.AddRow(failures, ring.Managers(), len(dist.Pairs), match)
		return nil
	}
	if err := check(0); err != nil {
		return nil, err
	}
	for failures := 1; failures <= 4; failures++ {
		// Crash the manager responsible for node 3 (a colluder) to stress
		// the replica-promotion path.
		name, err := ring.ManagerOf(3)
		if err != nil {
			return nil, err
		}
		if err := ring.FailManager(name); err != nil {
			return nil, err
		}
		if err := check(failures); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// AbIntensity sweeps the collusion flood intensity (ratings per partner
// per query cycle) and reports detection recall and latency: the detector
// fires once the cumulative pair frequency crosses T_N, so weaker floods
// are caught later — and floods below the threshold rate are never caught,
// but also buy almost no reputation.
func AbIntensity(opts Options) (*Table, error) {
	opts = opts.normalized()
	t := &Table{
		ID:     "ab-intensity",
		Title:  "Detection vs collusion flood intensity (B=0.2, EigenTrust+Optimized, TN=20)",
		Header: []string{"ratings_per_cycle", "recall", "mean_detection_cycle", "colluder_mean_reputation"},
		Notes: []string{
			"a pair exchanging r ratings/query cycle crosses TN=20 within ceil(20/(20r)) cycles; even r=1 is caught in cycle 1",
		},
	}
	for _, intensity := range []int{1, 2, 5, 10, 20} {
		cfg := simulator.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.ColluderGoodProb = 0.2
		cfg.Detector = simulator.DetectorOptimized
		cfg.CollusionRatings = intensity
		res, err := simulator.Run(cfg)
		if err != nil {
			return nil, err
		}
		flagged, latSum, repSum := 0, 0, 0.0
		for _, c := range cfg.Colluders {
			if res.Flagged[c] {
				flagged++
				latSum += res.DetectionCycle[c]
			}
			repSum += res.Scores[c]
		}
		recall := float64(flagged) / float64(len(cfg.Colluders))
		latency := 0.0
		if flagged > 0 {
			latency = float64(latSum) / float64(flagged)
		}
		t.AddRow(intensity, recall, latency, repSum/float64(len(cfg.Colluders)))
	}
	return t, nil
}

// AbDecentralizedLive runs the decentralized deployment inside the live
// Section V simulation: every rating is routed through the DHT to its
// manager as it happens, and the manager protocol runs each cycle. It
// reports the communication cost (manager messages and DHT hops) as the
// colluder count grows — the decentralized companion to Figure 13.
func AbDecentralizedLive(opts Options) (*Table, error) {
	opts = opts.normalized()
	counts := opts.ColluderCounts
	if len(counts) == 0 {
		counts = []int{8, 28, 58}
	}
	t := &Table{
		ID:    "ab-decentralized-live",
		Title: "Live decentralized deployment (8 managers): cost vs colluder count (B=0.2)",
		Header: []string{"colluders", "colluders_flagged", "manager_messages",
			"dht_hops", "rating_routing_hops"},
		Notes: []string{
			"rating routing dominates (every report crosses the DHT); detection itself needs only a few manager messages",
		},
	}
	for _, nc := range counts {
		var meter metrics.CostMeter
		th := simulator.SimThresholds()
		cfg := simulator.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.ColluderGoodProb = 0.2
		cfg.Colluders = colluderSet(nc)
		ring, err := core.NewManagerRing(8, cfg.Overlay.Nodes, th, &meter)
		if err != nil {
			return nil, err
		}
		// OnRating forces the run sequential, so the live deployment can
		// share the driver's tracer and observe DHT hops in the registry.
		ring.Trace = opts.Tracer
		ring.Observe(opts.Obs)
		cfg.Tracer = opts.Tracer
		cfg.Obs = opts.Obs
		cfg.Progress = opts.Progress
		cfg.OnRating = func(rater, target, polarity int) {
			// A live deployment routes every rating report over the DHT.
			_ = ring.Record(rater, target, polarity)
		}
		var detectHops int64
		flagged := map[int]bool{}
		cfg.OnCycle = func(cycle int, scores []float64) {
			before := meter.Get(metrics.CostDHTMessage)
			res := ring.Detect(core.KindOptimized)
			detectHops += meter.Get(metrics.CostDHTMessage) - before
			for _, n := range res.FlaggedNodes() {
				flagged[n] = true
			}
		}
		if _, err := simulator.Run(cfg); err != nil {
			return nil, err
		}
		colFlagged := 0
		for _, c := range cfg.Colluders {
			if flagged[c] {
				colFlagged++
			}
		}
		t.AddRow(nc, colFlagged,
			meter.Get(metrics.CostManagerMessage),
			detectHops,
			meter.Get(metrics.CostDHTMessage)-detectHops)
	}
	return t, nil
}
