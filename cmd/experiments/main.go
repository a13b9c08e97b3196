// Command experiments regenerates the paper's evaluation artifacts: every
// quantitative figure (1a-1d, 4, 5-13) and the ablation studies, as
// aligned text tables, optionally exporting CSVs for plotting. Figures
// that exercise the EigenTrust engine run on the sparse matrix engine;
// CSVs are byte-identical for every -workers value (CI compares them).
//
// Usage:
//
//	experiments [-fig all|ablations|fig1a|...|fig13|ab-*] [-runs 5] [-seed 1] [-scale 1.0] [-workers 0] [-out dir]
//	            [-trace trace.jsonl] [-metrics metrics.json|metrics.prom]
//	            [-progress progress.jsonl] [-telemetry-addr :9090] [-telemetry-linger 30s]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Examples:
//
//	experiments -fig fig12                # one figure, 5-run averaging
//	experiments -fig all -out results/    # everything + CSVs
//	experiments -fig ablations -runs 3    # the ablation studies
//	experiments -fig fig13 -runs 1        # quick single-run pass
//	experiments -fig fig12 -workers 4     # parallel engine, identical output
//	experiments -fig fig8 -trace trace.jsonl -metrics metrics.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/p2psim/collusion/internal/experiments"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/obs/prof"
	"github.com/p2psim/collusion/internal/obs/serve"
	"github.com/p2psim/collusion/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args, executes the selected drivers, and renders the tables
// to stdout (plus CSVs when -out is set).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate (all, ablations, fig1a-fig1d, fig4-fig13, ab-*)")
		runs    = fs.Int("runs", 5, "simulation runs to average (the paper uses 5)")
		seed    = fs.Uint64("seed", 1, "root random seed")
		scale   = fs.Float64("scale", 1.0, "synthetic-trace volume scale")
		workers = fs.Int("workers", 0, "worker goroutines for the parallel engine (0: GOMAXPROCS; output is identical for every value)")
		shards  = fs.Int("ingest-shards", 0, "writer goroutines for sharded rating ingest inside each simulation (0: direct single-writer records)")
		out     = fs.String("out", "", "directory for CSV export (empty: no files)")

		tracePath       = fs.String("trace", "", "write the deterministic JSONL run trace to this file")
		metricsPath     = fs.String("metrics", "", "export metrics to this file after the run (.prom: Prometheus text, otherwise JSON)")
		progressPath    = fs.String("progress", "", "write per-cycle registry-delta JSONL lines to this file (live feed; cell-parallel figures interleave)")
		telemetryAddr   = fs.String("telemetry-addr", "", "serve live telemetry on this address while experiments run (/metrics, /metrics.json, /healthz, /debug/pprof)")
		telemetryLinger = fs.Duration("telemetry-linger", 0, "keep the telemetry server scrapeable this long after outputs are written")
		cpuprofile      = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile      = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := *workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	opts := experiments.Options{Seed: *seed, Runs: *runs, Scale: *scale, Workers: w, IngestShards: *shards}
	var tracer *obs.Tracer
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(sink)
		opts.Tracer = tracer
	}
	var reg *obs.Registry
	if *metricsPath != "" || *progressPath != "" || *telemetryAddr != "" {
		reg = obs.NewRegistry(nil)
		opts.Obs = reg
	}
	if *progressPath != "" {
		sink, err := obs.NewFileSink(*progressPath)
		if err != nil {
			return err
		}
		opts.Progress = obs.NewProgress(reg, sink)
	}
	var srv *serve.Server
	if *telemetryAddr != "" {
		// No span hub here: experiments runs figure cells concurrently and
		// a span tracer's open-span stack describes one sequential loop, so
		// the sweep exposes metrics and pprof but not /spans (404).
		var err error
		srv, err = serve.Start(serve.Options{
			Addr:     *telemetryAddr,
			Registry: reg,
			Version:  "experiments",
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(stdout, "telemetry listening on %s\n", srv.Addr())
	}
	if *cpuprofile != "" {
		stop, err := prof.StartCPUProfile(*cpuprofile)
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
	}

	var tables []*experiments.Table
	switch *fig {
	case "all":
		all, err := experiments.All(opts)
		if err != nil {
			return err
		}
		tables = all
	case "ablations":
		all, err := experiments.Ablations(opts)
		if err != nil {
			return err
		}
		tables = all
	default:
		fn, err := experiments.ByName(*fig)
		if err != nil {
			return err
		}
		t, err := fn(opts)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	if err := experiments.SaveAll(stdout, *out, tables...); err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if opts.Progress != nil {
		if err := opts.Progress.Close(); err != nil {
			return fmt.Errorf("progress: %w", err)
		}
	}
	if reg != nil {
		reg.Gauge("experiments.tables").Set(float64(len(tables)))
	}
	if *metricsPath != "" {
		if err := reg.WriteFile(*metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	if *memprofile != "" {
		if err := prof.WriteHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	if srv != nil {
		srv.Linger(*telemetryLinger)
	}
	return nil
}
