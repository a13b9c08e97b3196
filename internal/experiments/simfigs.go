package experiments

import (
	"fmt"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/parallel"
	"github.com/p2psim/collusion/internal/simulator"
	"github.com/p2psim/collusion/internal/stats"
)

func defaultSimThresholds() core.Thresholds { return simulator.SimThresholds() }

// reputationFigure runs an averaged simulation and renders the reputation
// distribution of the first 20 nodes plus per-group summaries — the
// standard layout of Figures 5-11.
func reputationFigure(id, title string, cfg simulator.Config, opts Options, notes ...string) (*Table, error) {
	opts = opts.normalized()
	cfg.Seed = opts.Seed
	cfg.Workers = opts.Workers
	cfg.Tracer = opts.Tracer // RunAveragedParallel forks per run internally
	cfg.Obs = opts.Obs
	cfg.Progress = opts.Progress
	avg, err := simulator.RunAveragedParallel(cfg, opts.Runs, opts.Workers)
	if err != nil {
		return nil, err
	}
	role := roleMap(cfg)
	t := &Table{
		ID:    id,
		Title: title,
		// Node IDs are printed 1-based to match the paper's figures.
		Header: []string{"node_id", "role", "avg_reputation", "flag_rate"},
		Notes:  notes,
	}
	show := 20
	if show > cfg.Overlay.Nodes {
		show = cfg.Overlay.Nodes
	}
	for i := 0; i < show; i++ {
		t.AddRow(i+1, role[i], avg.Scores[i], avg.FlagRate[i])
	}
	// Group means over the whole population.
	groups := map[string]*struct {
		sum float64
		n   int
	}{}
	for i := 0; i < cfg.Overlay.Nodes; i++ {
		g := groups[role[i]]
		if g == nil {
			g = &struct {
				sum float64
				n   int
			}{}
			groups[role[i]] = g
		}
		g.sum += avg.Scores[i]
		g.n++
	}
	for _, name := range []string{"pretrusted", "colluder", "normal"} {
		if g := groups[name]; g != nil && g.n > 0 {
			t.AddRow("mean", name, g.sum/float64(g.n), "")
		}
	}
	// Trust concentration across the whole population (the skew the paper
	// notes in Figure 5(a)).
	t.AddRow("gini", "all", stats.Gini(avg.Scores), "")
	return t, nil
}

// roleMap labels each node for figure output.
func roleMap(cfg simulator.Config) map[int]string {
	role := map[int]string{}
	for i := 0; i < cfg.Overlay.Nodes; i++ {
		role[i] = "normal"
	}
	for _, p := range cfg.Pretrusted {
		role[p] = "pretrusted"
	}
	for _, c := range cfg.Colluders {
		role[c] = "colluder"
	}
	for _, cp := range cfg.CompromisedPairs {
		role[cp[0]] = "compromised-pretrusted"
	}
	return role
}

// Fig5 reproduces Figure 5: reputation distribution under bare EigenTrust
// with colluders behaving well 60% of the time.
func Fig5(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	return reputationFigure("fig5",
		"EigenTrust reputation distribution, B=0.6 (pretrusted 1-3, colluders 4-11)",
		cfg, opts,
		"shape: colluders gain the highest reputations, above even pretrusted nodes")
}

// Fig6 reproduces Figure 6: bare EigenTrust with B=0.2.
func Fig6(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	return reputationFigure("fig6",
		"EigenTrust reputation distribution, B=0.2 (pretrusted 1-3, colluders 4-11)",
		cfg, opts,
		"shape: EigenTrust suppresses colluders when their service is poor; pretrusted highest")
}

// Fig7 reproduces Figure 7: bare EigenTrust with compromised pretrusted
// nodes (n1 colludes with n4, n2 with n6), B=0.2.
func Fig7(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.CompromisedPairs = [][2]int{{0, 3}, {1, 5}}
	return reputationFigure("fig7",
		"EigenTrust with compromised pretrusted nodes, B=0.2",
		cfg, opts,
		"shape: compromised pretrust boosts colluders 4-7 above everyone; colluders 8-11 starve")
}

// Fig8 reproduces Figure 8: the standalone detectors (no pretrusted nodes,
// colluders 1-8, summation reputation), B=0.2. Unoptimized and Optimized
// produce identical distributions; the table reports both flag rates.
func Fig8(opts Options) (*Table, error) {
	opts = opts.normalized()
	base := simulator.DefaultConfig()
	base.Pretrusted = nil
	base.Colluders = []int{0, 1, 2, 3, 4, 5, 6, 7}
	base.ColluderGoodProb = 0.2
	base.Engine = simulator.EngineSummation
	base.Seed = opts.Seed

	// One cell per detector kind; cells run concurrently and land in
	// index-ordered slots, so the table is identical for every Workers.
	// Each cell traces into its own forked buffer, joined in cell order,
	// keeping the combined trace byte-identical too.
	kinds := []simulator.DetectorKind{simulator.DetectorBasic, simulator.DetectorOptimized}
	kids := opts.Tracer.Fork(len(kinds))
	avgs := make([]*simulator.AveragedResult, len(kinds))
	errs := make([]error, len(kinds))
	parallel.ForEach(opts.Workers, len(kinds), func(c int) {
		cfg := base
		cfg.Detector = kinds[c]
		cfg.Tracer = kids[c]
		cfg.Obs = opts.Obs
		cfg.Progress = opts.Progress
		avgs[c], errs[c] = simulator.RunAveragedParallel(cfg, opts.Runs, opts.Workers)
	})
	if err := opts.Tracer.Join(kids); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	results := map[simulator.DetectorKind]*simulator.AveragedResult{}
	for c, det := range kinds {
		results[det] = avgs[c]
	}
	t := &Table{
		ID:     "fig8",
		Title:  "Standalone detectors, B=0.2 (colluders 1-8, summation reputation)",
		Header: []string{"node_id", "role", "rep_unoptimized", "rep_optimized", "flag_unopt", "flag_opt"},
		Notes: []string{
			"shape: both methods detect all colluders and zero their reputations; results identical",
		},
	}
	role := roleMap(base)
	bu := results[simulator.DetectorBasic]
	op := results[simulator.DetectorOptimized]
	show := 20
	if show > base.Overlay.Nodes {
		show = base.Overlay.Nodes
	}
	for i := 0; i < show; i++ {
		t.AddRow(i+1, role[i], bu.Scores[i], op.Scores[i], bu.FlagRate[i], op.FlagRate[i])
	}
	return t, nil
}

// Fig9 reproduces Figure 9: EigenTrust employing the optimized detector,
// B=0.6.
func Fig9(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	cfg.Detector = simulator.DetectorOptimized
	return reputationFigure("fig9",
		"EigenTrust+Optimized reputation distribution, B=0.6",
		cfg, opts,
		"shape: colluders drop to 0, pretrusted reputations rise, normal means rise")
}

// Fig10 reproduces Figure 10: EigenTrust+Optimized, B=0.2.
func Fig10(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.Detector = simulator.DetectorOptimized
	return reputationFigure("fig10",
		"EigenTrust+Optimized reputation distribution, B=0.2",
		cfg, opts,
		"shape: colluders at 0; pretrusted absorb the freed trust mass and stay highest")
}

// Fig11 reproduces Figure 11: EigenTrust+Optimized with compromised
// pretrusted nodes.
func Fig11(opts Options) (*Table, error) {
	cfg := simulator.DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.CompromisedPairs = [][2]int{{0, 3}, {1, 5}}
	cfg.Detector = simulator.DetectorOptimized
	return reputationFigure("fig11",
		"EigenTrust+Optimized with compromised pretrusted nodes, B=0.2",
		cfg, opts,
		"shape: colluders AND compromised pretrusted nodes at 0; honest pretrusted node 3 stays high")
}

// fig12Counts are the x-axis of Figures 12 and 13.
var fig12Counts = []int{8, 18, 28, 38, 48, 58}

// colluderSet returns n colluder indices starting after the pretrusted
// nodes, as in the paper's layout.
func colluderSet(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 3 + i
	}
	return out
}

// Fig12 reproduces Figure 12: the percentage of file requests served by
// colluders versus the number of colluders, for bare EigenTrust and for
// EigenTrust employing each detector. Settings follow Figure 6 (B=0.2).
func Fig12(opts Options) (*Table, error) {
	opts = opts.normalized()
	counts := opts.ColluderCounts
	if len(counts) == 0 {
		counts = fig12Counts
	}
	t := &Table{
		ID:     "fig12",
		Title:  "Percent of requests sent to colluders vs number of colluders (B=0.2)",
		Header: []string{"colluders", "eigentrust", "unoptimized", "optimized"},
		Notes: []string{
			"shape: EigenTrust's share rises sharply with colluder count; both detectors stay low, flat and equal",
		},
	}
	// Flatten the counts × detectors grid into cells. Each cell is fully
	// determined by (Seed, colluder count, detector) — never by which
	// goroutine claims it — and the rows are assembled from the cell slice
	// in count order, so the table is byte-identical for every Workers.
	kinds := []simulator.DetectorKind{
		simulator.DetectorNone, simulator.DetectorBasic, simulator.DetectorOptimized,
	}
	shares := make([]float64, len(counts)*len(kinds))
	errs := make([]error, len(shares))
	kids := opts.Tracer.Fork(len(shares))
	parallel.ForEach(opts.Workers, len(shares), func(c int) {
		nc, det := counts[c/len(kinds)], kinds[c%len(kinds)]
		cfg := simulator.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.ColluderGoodProb = 0.2
		cfg.Colluders = colluderSet(nc)
		cfg.Detector = det
		cfg.Tracer = kids[c]
		cfg.Obs = opts.Obs
		cfg.Progress = opts.Progress
		avg, err := simulator.RunAveragedParallel(cfg, opts.Runs, opts.Workers)
		if err != nil {
			errs[c] = err
			return
		}
		shares[c] = avg.PercentToColluders
	})
	if err := opts.Tracer.Join(kids); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for ci, nc := range counts {
		row := []any{nc}
		for ki := range kinds {
			row = append(row, shares[ci*len(kinds)+ki])
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: operation cost (counted work units) for
// thwarting collusion versus the number of colluders. EigenTrust's cost is
// its recursive matrix calculation; the detectors' costs are their matrix
// scans / bound checks. The paper's ordering — Unoptimized >> EigenTrust >
// Optimized, with EigenTrust flat in the colluder count — must hold.
func Fig13(opts Options) (*Table, error) {
	opts = opts.normalized()
	counts := opts.ColluderCounts
	if len(counts) == 0 {
		counts = fig12Counts
	}
	t := &Table{
		ID:     "fig13",
		Title:  "Operation cost for thwarting collusion vs number of colluders (B=0.2)",
		Header: []string{"colluders", "eigentrust", "unoptimized", "optimized"},
		Notes: []string{
			"shape: Unoptimized >> EigenTrust > Optimized; EigenTrust flat in colluder count",
		},
	}
	// Flatten the counts × methods grid into cells, each with its own
	// fresh meter so concurrent cells never share counters. Cell outputs
	// land in index-ordered slots and the rows are assembled in count
	// order, so the table is byte-identical for every Workers.
	const methods = 3 // eigentrust, unoptimized, optimized
	costs := make([]int64, len(counts)*methods)
	errs := make([]error, len(costs))
	kids := opts.Tracer.Fork(len(costs))
	parallel.ForEach(opts.Workers, len(costs), func(c int) {
		nc, method := counts[c/methods], c%methods
		var meter metrics.CostMeter
		cfg := simulator.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.ColluderGoodProb = 0.2
		cfg.Colluders = colluderSet(nc)
		cfg.Meter = &meter
		cfg.Tracer = kids[c]
		cfg.Obs = opts.Obs
		cfg.Progress = opts.Progress
		switch method {
		case 0:
			// EigenTrust cost: the recursive matrix calculation's
			// multiply-adds, measured on a bare power-iteration run (the
			// cost model the paper describes for EigenTrust).
		case 1:
			// Detector costs: the detector counters, measured on summation
			// runs so the engine does not contribute.
			cfg.Engine = simulator.EngineSummation
			cfg.Detector = simulator.DetectorBasic
		case 2:
			cfg.Engine = simulator.EngineSummation
			cfg.Detector = simulator.DetectorOptimized
		}
		if _, err := simulator.Run(cfg); err != nil {
			errs[c] = err
			return
		}
		if method == 0 {
			costs[c] = meter.Get(metrics.CostEigenMulAdd)
			return
		}
		costs[c] = meter.Get(metrics.CostMatrixScan) +
			meter.Get(metrics.CostBoundCheck) +
			meter.Get(metrics.CostPairCheck)
	})
	if err := opts.Tracer.Join(kids); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for ci, nc := range counts {
		t.AddRow(nc, costs[ci*methods], costs[ci*methods+1], costs[ci*methods+2])
	}
	return t, nil
}

// All runs every figure driver in order.
func All(opts Options) ([]*Table, error) {
	drivers := []struct {
		name string
		fn   func(Options) (*Table, error)
	}{
		{"fig1a", Fig1a}, {"fig1b", Fig1b}, {"fig1c", Fig1c}, {"fig1d", Fig1d},
		{"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7},
		{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11},
		{"fig12", Fig12}, {"fig13", Fig13},
	}
	var tables []*Table
	for _, d := range drivers {
		t, err := d.fn(opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.name, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// ByName returns the driver for a figure id, or an error listing the
// available ids.
func ByName(name string) (func(Options) (*Table, error), error) {
	drivers := map[string]func(Options) (*Table, error){
		"fig1a": Fig1a, "fig1b": Fig1b, "fig1c": Fig1c, "fig1d": Fig1d,
		"fig4": Fig4, "fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
		"fig8": Fig8, "fig9": Fig9, "fig10": Fig10, "fig11": Fig11,
		"fig12": Fig12, "fig13": Fig13,
		"ab-thresholds": AbThresholds, "ab-strict": AbStrict,
		"ab-managers": AbManagers, "ab-false-positives": AbFalsePositives,
		"ab-group": AbGroup, "ab-sybil": AbSybil, "ab-engines": AbEngines,
		"ab-timeline": AbTimeline, "ab-scale": AbScale,
		"ab-churn": AbChurn, "ab-intensity": AbIntensity,
		"ab-decentralized-live": AbDecentralizedLive,
	}
	if fn, ok := drivers[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("experiments: unknown figure %q (try fig1a-fig1d, fig4-fig13, ab-*)", name)
}
