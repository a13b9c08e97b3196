// Command colsim runs one P2P file-sharing simulation (the Section V
// testbed) and reports the reputation distribution, the colluders'
// request share, detection results and operation costs. The EigenTrust
// engine stores trust sparsely (column-compressed from the ledger, see
// DESIGN.md section 17), so -nodes scales to the millions while scores
// and costs stay bit-identical to the dense formulation.
//
// Usage:
//
//	colsim [-nodes 200] [-colluders 8] [-b 0.6]
//	       [-engine eigentrust|summation|weighted|iterative|similarity]
//	       [-detector none|basic|optimized|group|sybil]
//	       [-compromised] [-ring 0] [-swarm 0] [-cycles 20] [-window 0]
//	       [-ingest-shards 0] [-runs 1] [-seed 1]
//	       [-trace trace.jsonl] [-metrics metrics.json|metrics.prom]
//	       [-spans spans.jsonl] [-progress progress.jsonl]
//	       [-telemetry-addr :9090] [-telemetry-linger 30s]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	       [-serve] [-record-requests reqs.jsonl]
//	       [-replay-requests reqs.jsonl] [-replay-out out.jsonl]
//	       [-flagged flagged.json]
//
// Examples:
//
//	colsim -b 0.6                               # Figure 5 conditions
//	colsim -b 0.2 -detector optimized           # Figure 10 conditions
//	colsim -b 0.2 -compromised -detector optimized   # Figure 11 conditions
//	colsim -b 0.2 -detector optimized -trace trace.jsonl  # audit every decision
//	colsim -detector basic -metrics metrics.prom -cpuprofile cpu.pprof
//	colsim -detector optimized -window 4 -spans spans.jsonl  # phase timeline
//	colsim -telemetry-addr :9090 -metrics metrics.prom       # live scrape
//	colsim -serve -detector optimized -telemetry-addr :9090  # resident service (/v1/ API)
//	colsim -serve -detector optimized -record-requests reqs.jsonl -flagged served.json
//	colsim -replay-requests reqs.jsonl -detector optimized -replay-out out.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	collusion "github.com/p2psim/collusion"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/obs/prof"
	"github.com/p2psim/collusion/internal/obs/serve"
	"github.com/p2psim/collusion/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "colsim:", err)
		os.Exit(1)
	}
}

// run parses args, executes the simulation and writes the report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("colsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes           = fs.Int("nodes", 200, "network size")
		colluders       = fs.Int("colluders", 8, "number of colluders (paired consecutively)")
		b               = fs.Float64("b", 0.6, "colluder good-behavior probability B")
		engine          = fs.String("engine", "eigentrust", "reputation engine: eigentrust, summation, weighted, iterative, similarity")
		detector        = fs.String("detector", "none", "collusion detector: none, basic, optimized, group, sybil")
		compromised     = fs.Bool("compromised", false, "compromise two pretrusted nodes (Figure 7/11 scenario)")
		ringSize        = fs.Int("ring", 0, "also plant one colluder ring of this size (>= 3)")
		swarmSize       = fs.Int("swarm", 0, "also plant one Sybil swarm with this many fake boosters (>= 2)")
		cycles          = fs.Int("cycles", 20, "simulation cycles")
		window          = fs.Int("window", 0, "sliding-window length in simulation cycles (0: cumulative)")
		shards          = fs.Int("ingest-shards", 0, "writer goroutines for sharded rating ingest (0: direct single-writer records)")
		runs            = fs.Int("runs", 1, "runs to average")
		seed            = fs.Uint64("seed", 1, "random seed")
		tracePath       = fs.String("trace", "", "write the deterministic JSONL run trace to this file")
		metricsPath     = fs.String("metrics", "", "export metrics to this file after the run (.prom: Prometheus text, otherwise JSON)")
		spansPath       = fs.String("spans", "", "write the deterministic span timeline (JSONL phase events) to this file")
		progressPath    = fs.String("progress", "", "write one per-cycle registry-delta JSONL line to this file")
		telemetryAddr   = fs.String("telemetry-addr", "", "serve live telemetry on this address while the run executes (/metrics, /metrics.json, /healthz, /spans, /debug/pprof)")
		telemetryLinger = fs.Duration("telemetry-linger", 0, "keep the telemetry server scrapeable this long after outputs are written")
		cpuprofile      = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile      = fs.String("memprofile", "", "write a pprof heap profile to this file")
		serveMode       = fs.Bool("serve", false, "run as a resident detection service fed by the seeded simulator (one simulation cycle per epoch); mounts /v1/ on -telemetry-addr")
		recordReqs      = fs.String("record-requests", "", "with -serve: write the applied batches as a JSONL request log (input for -replay-requests)")
		replayReqs      = fs.String("replay-requests", "", "replay this JSONL request log through a fresh service instead of simulating")
		replayOut       = fs.String("replay-out", "", "with -replay-requests: write response lines to this file instead of stdout")
		flaggedPath     = fs.String("flagged", "", "write the final flagged document (epoch, flagged nodes, evidence pairs, scores) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := collusion.DefaultSimConfig()
	cfg.Seed = *seed
	cfg.Overlay.Nodes = *nodes
	cfg.SimCycles = *cycles
	cfg.WindowCycles = *window
	cfg.IngestShards = *shards
	cfg.ColluderGoodProb = *b
	cfg.Colluders = make([]int, *colluders)
	for i := range cfg.Colluders {
		cfg.Colluders[i] = 3 + i
	}
	switch *engine {
	case "eigentrust":
		cfg.Engine = collusion.EngineEigenTrust
	case "summation":
		cfg.Engine = collusion.EngineSummation
	case "weighted":
		cfg.Engine = collusion.EngineWeightedSum
	case "iterative":
		cfg.Engine = collusion.EngineIterativeWeighted
	case "similarity":
		cfg.Engine = collusion.EngineSimilarity
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	switch *detector {
	case "none":
		cfg.Detector = collusion.DetectorNone
	case "basic":
		cfg.Detector = collusion.DetectorBasic
	case "optimized":
		cfg.Detector = collusion.DetectorOptimized
	case "group":
		cfg.Detector = collusion.DetectorGroup
	case "sybil":
		cfg.Detector = collusion.DetectorSybil
	default:
		return fmt.Errorf("unknown detector %q", *detector)
	}
	next := 3 + *colluders
	if *ringSize >= 3 {
		ring := make([]int, *ringSize)
		for i := range ring {
			ring[i] = next
			next++
		}
		cfg.ColluderRings = [][]int{ring}
	}
	if *swarmSize >= 2 {
		swarm := make([]int, *swarmSize+1)
		for i := range swarm {
			swarm[i] = next
			next++
		}
		cfg.SybilSwarms = [][]int{swarm}
	}
	if *compromised {
		if *colluders < 3 {
			return fmt.Errorf("-compromised needs at least 3 colluders")
		}
		cfg.CompromisedPairs = [][2]int{{0, 3}, {1, 5}}
	}

	var meter collusion.CostMeter
	cfg.Meter = &meter

	if *recordReqs != "" && !*serveMode {
		return fmt.Errorf("-record-requests requires -serve")
	}
	if *replayOut != "" && *replayReqs == "" {
		return fmt.Errorf("-replay-out requires -replay-requests")
	}
	if *serveMode || *replayReqs != "" {
		if *runs > 1 {
			return fmt.Errorf("-serve/-replay-requests do not support -runs > 1")
		}
		if *spansPath != "" || *progressPath != "" || *cpuprofile != "" || *memprofile != "" {
			return fmt.Errorf("-spans/-progress/-cpuprofile/-memprofile are not supported in service mode")
		}
		return runService(stdout, cfg, serviceOpts{
			metricsPath:     *metricsPath,
			telemetryAddr:   *telemetryAddr,
			telemetryLinger: *telemetryLinger,
			tracePath:       *tracePath,
			recordPath:      *recordReqs,
			replayPath:      *replayReqs,
			replayOut:       *replayOut,
			flaggedPath:     *flaggedPath,
			meter:           &meter,
		})
	}
	if *flaggedPath != "" && *runs > 1 {
		return fmt.Errorf("-flagged requires a single run")
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(sink)
		cfg.Tracer = tracer
	}
	var reg *obs.Registry
	if *metricsPath != "" || *progressPath != "" || *telemetryAddr != "" {
		reg = obs.NewRegistry(&meter)
		cfg.Obs = reg
	}
	if *metricsPath != "" {
		// Wall-clock detection latency comes from the unseeded profiling
		// harness; it observes into a histogram and never feeds back. It is
		// tied to -metrics (not to the registry existing) so that a
		// -progress stream on its own stays free of wall-clock histograms
		// and therefore byte-deterministic.
		cfg.CycleTimer = prof.DetectTimer(reg.Histogram("detect.cycle_ns"))
	}
	// The span timeline rides its own tracer: one file sink, one telemetry
	// hub, or both behind a tee. Wall-clock span durations are attached
	// only when something wall-clock-aware consumes the registry (-metrics
	// or a live scrape), for the same determinism reason as CycleTimer.
	var hub *serve.Hub
	var spanSinks []obs.Sink
	if *spansPath != "" {
		sink, err := obs.NewFileSink(*spansPath)
		if err != nil {
			return err
		}
		spanSinks = append(spanSinks, sink)
	}
	if *telemetryAddr != "" {
		hub = serve.NewHub(reg, 0)
		spanSinks = append(spanSinks, hub)
	}
	if len(spanSinks) > 0 {
		spans := obs.NewSpanTracer(obs.Tee(spanSinks...), &meter)
		if *metricsPath != "" || *telemetryAddr != "" {
			spans.Observer = prof.NewSpanTimer(reg)
		}
		cfg.Spans = spans
	}
	if *progressPath != "" {
		sink, err := obs.NewFileSink(*progressPath)
		if err != nil {
			return err
		}
		cfg.Progress = obs.NewProgress(reg, sink)
	}
	var srv *serve.Server
	if *telemetryAddr != "" {
		var err error
		srv, err = serve.Start(serve.Options{
			Addr:     *telemetryAddr,
			Registry: reg,
			Hub:      hub,
			Version:  "colsim",
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		// Printed before the run so scripts (and the CI smoke job) can
		// discover the port resolved from ":0".
		fmt.Fprintf(stdout, "telemetry listening on %s\n", srv.Addr())
		prev := cfg.OnCycle
		cfg.OnCycle = func(cycle int, scores []float64) {
			srv.SetCycle(cycle)
			if prev != nil {
				prev(cycle, scores)
			}
		}
	}
	if *cpuprofile != "" {
		stop, err := prof.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
	}

	if *runs > 1 {
		avg, err := collusion.RunSimulationAveraged(cfg, *runs)
		if err != nil {
			return err
		}
		printAveraged(stdout, cfg, avg)
		// Gauges are set once, post-run: parallel averaged runs share the
		// registry and only record into order-independent histograms.
		reg.Gauge("run.percent_to_colluders").Set(avg.PercentToColluders)
		reg.Gauge("run.runs_averaged").Set(float64(avg.Runs))
	} else {
		res, err := collusion.RunSimulation(cfg)
		if err != nil {
			return err
		}
		printSingle(stdout, cfg, res)
		reg.Gauge("run.requests_total").Set(float64(res.RequestsTotal))
		reg.Gauge("run.requests_to_colluders").Set(float64(res.RequestsToColluders))
		reg.Gauge("run.ratings_recorded").Set(float64(res.RatingsRecorded))
		flagged := 0
		for _, f := range res.Flagged {
			if f {
				flagged++
			}
		}
		reg.Gauge("run.flagged_total").Set(float64(flagged))
		if cfg.WindowCycles > 0 {
			reg.Gauge("window.delta_rows").Set(float64(res.WindowDeltaRows))
		}
		if *flaggedPath != "" {
			// The same document a served run exports from its final
			// snapshot; the CI smoke job byte-compares the two.
			doc := service.AppendFlagged(nil, int64(cfg.SimCycles), res.Scores, res.Flagged,
				func(i int) int64 { return int64(res.DetectionCycle[i]) }, res.DetectedPairs)
			if err := os.WriteFile(*flaggedPath, doc, 0o644); err != nil {
				return fmt.Errorf("flagged: %w", err)
			}
			fmt.Fprintf(stdout, "flagged document written to %s\n", *flaggedPath)
		}
	}
	fmt.Fprintln(stdout, "operation costs:")
	snap := meter.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-24s %d\n", name, snap[name])
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}
	if cfg.Spans != nil {
		// Closing the span tracer closes its sink chain: the file sink
		// flushes and the hub (if any) ends every live /spans stream.
		if err := cfg.Spans.Close(); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		if *spansPath != "" {
			fmt.Fprintf(stdout, "span timeline written to %s\n", *spansPath)
		}
	}
	if cfg.Progress != nil {
		if err := cfg.Progress.Close(); err != nil {
			return fmt.Errorf("progress: %w", err)
		}
		fmt.Fprintf(stdout, "progress written to %s\n", *progressPath)
	}
	if *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *metricsPath)
	}
	if *memprofile != "" {
		if err := prof.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	if srv != nil {
		// Nothing mutates the registry past this point, so a /metrics
		// scrape during the linger is byte-identical to the -metrics file
		// written above — the CI smoke job compares exactly that.
		srv.Linger(*telemetryLinger)
	}
	return nil
}

func role(cfg collusion.SimConfig, i int) string {
	for _, cp := range cfg.CompromisedPairs {
		if cp[0] == i {
			return "compromised"
		}
	}
	for _, p := range cfg.Pretrusted {
		if p == i {
			return "pretrusted"
		}
	}
	for _, c := range cfg.Colluders {
		if c == i {
			return "colluder"
		}
	}
	for _, ring := range cfg.ColluderRings {
		for _, m := range ring {
			if m == i {
				return "ring"
			}
		}
	}
	for _, swarm := range cfg.SybilSwarms {
		if swarm[0] == i {
			return "beneficiary"
		}
		for _, m := range swarm[1:] {
			if m == i {
				return "sybil"
			}
		}
	}
	return "normal"
}

func printSingle(w io.Writer, cfg collusion.SimConfig, res *collusion.SimResult) {
	fmt.Fprintf(w, "requests: %d total, %d to colluders (%.2f%%)\n",
		res.RequestsTotal, res.RequestsToColluders, 100*res.PercentToColluders())
	fmt.Fprintf(w, "ratings recorded: %d\n", res.RatingsRecorded)
	if len(res.DetectedPairs) > 0 {
		fmt.Fprintln(w, "detected colluding pairs (1-based IDs):")
		for _, e := range res.DetectedPairs {
			fmt.Fprintf(w, "  (%d, %d)  N=%d/%d  a=%.2f/%.2f\n",
				e.I+1, e.J+1, e.NIJ, e.NJI, e.AIJ, e.AJI)
		}
	}
	fmt.Fprintln(w, "final reputations (first 20 nodes, 1-based IDs):")
	n := 20
	if n > len(res.Scores) {
		n = len(res.Scores)
	}
	for i := 0; i < n; i++ {
		flag := ""
		if res.Flagged[i] {
			flag = "  [flagged]"
		}
		fmt.Fprintf(w, "  node %-3d %-12s %.6f%s\n", i+1, role(cfg, i), res.Scores[i], flag)
	}
}

func printAveraged(w io.Writer, cfg collusion.SimConfig, avg *collusion.SimAveraged) {
	fmt.Fprintf(w, "averaged over %d runs; requests to colluders: %.2f%%\n",
		avg.Runs, 100*avg.PercentToColluders)
	fmt.Fprintln(w, "mean reputations (first 20 nodes, 1-based IDs):")
	n := 20
	if n > len(avg.Scores) {
		n = len(avg.Scores)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "  node %-3d %-12s %.6f  flag-rate %.2f\n",
			i+1, role(cfg, i), avg.Scores[i], avg.FlagRate[i])
	}
}
