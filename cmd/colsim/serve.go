package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	collusion "github.com/p2psim/collusion"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/obs/prof"
	"github.com/p2psim/collusion/internal/obs/serve"
	"github.com/p2psim/collusion/internal/service"
	"github.com/p2psim/collusion/internal/service/httpapi"
	"github.com/p2psim/collusion/internal/simulator"
)

// serviceOpts carries the service-mode flags out of run().
type serviceOpts struct {
	metricsPath     string
	telemetryAddr   string
	telemetryLinger time.Duration
	tracePath       string
	recordPath      string
	replayPath      string
	replayOut       string
	flaggedPath     string
	meter           *collusion.CostMeter
}

// newStore builds the resident detection service from the simulation
// configuration: engine, detector and thresholds come from the exact
// builders a batch run uses, so the service recomputes byte-identical
// state from the rating stream alone.
func newStore(cfg collusion.SimConfig, reg *obs.Registry, o serviceOpts) (*service.Store, *obs.Tracer, error) {
	built := cfg
	built.Obs = reg
	built.Meter = o.meter
	var tracer *obs.Tracer
	if o.tracePath != "" {
		sink, err := obs.NewFileSink(o.tracePath)
		if err != nil {
			return nil, nil, err
		}
		tracer = obs.NewTracer(sink)
		built.Tracer = tracer
	}
	svcCfg := service.Config{
		Nodes:        built.Overlay.Nodes,
		Engine:       simulator.BuildEngine(built),
		Detector:     simulator.BuildPairDetector(built),
		Thresholds:   built.DetectionThresholds(),
		IngestShards: built.IngestShards,
		WindowCycles: built.WindowCycles,
		Obs:          reg,
		Tracer:       tracer,
	}
	if o.metricsPath != "" {
		// Same wall-clock gating as batch mode: the detection-latency
		// histogram only exists when a -metrics artifact asked for it.
		svcCfg.CycleTimer = prof.DetectTimer(reg.Histogram("detect.cycle_ns"))
	}
	st, err := service.New(svcCfg)
	if err != nil {
		return nil, nil, err
	}
	return st, tracer, nil
}

// writeFlagged writes the service's flagged document artifact from the
// store's current snapshot.
func writeFlagged(st *service.Store, path string) error {
	sn := st.Acquire()
	defer sn.Release()
	return os.WriteFile(path, service.AppendFlaggedSnapshot(nil, sn), 0o644)
}

// runService executes colsim's resident-service modes: -serve (seeded
// simulator as traffic source, one simulation cycle applied per epoch)
// and -replay-requests (deterministic JSONL request replay). Either way
// the service owns detection, scoring and telemetry; the final state is
// exportable as a flagged document byte-identical to the equivalent
// batch run's.
func runService(stdout io.Writer, cfg collusion.SimConfig, o serviceOpts) error {
	var reg *obs.Registry
	if o.metricsPath != "" || o.telemetryAddr != "" {
		reg = obs.NewRegistry(o.meter)
	}
	st, tracer, err := newStore(cfg, reg, o)
	if err != nil {
		return err
	}
	defer st.Close()

	var srv *serve.Server
	if o.telemetryAddr != "" {
		srv, err = serve.Start(serve.Options{
			Addr:     o.telemetryAddr,
			Registry: reg,
			Version:  "colsim-serve",
			API:      httpapi.New(st, reg),
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(stdout, "service listening on %s\n", srv.Addr())
	}

	if o.replayPath != "" {
		if err := replayRequests(stdout, st, o); err != nil {
			return err
		}
	} else {
		if err := serveSimulation(stdout, cfg, st, srv, o); err != nil {
			return err
		}
	}

	// The batch run observes the final pair-frequency distribution after
	// its last cycle; mirror it so a served -metrics artifact matches.
	if _, err := st.ObservePairFrequencies(); err != nil {
		return err
	}
	sn := st.Acquire()
	flaggedTotal := 0
	for _, f := range sn.Flagged() {
		if f {
			flaggedTotal++
		}
	}
	fmt.Fprintf(stdout, "final epoch %d: %d ratings, %d flagged, %d evidence pairs\n",
		sn.Epoch(), sn.Ratings(), flaggedTotal, len(sn.Pairs()))
	if reg != nil {
		reg.Gauge("run.ratings_recorded").Set(float64(sn.Ratings()))
		reg.Gauge("run.flagged_total").Set(float64(flaggedTotal))
	}
	sn.Release()

	if o.flaggedPath != "" {
		if err := writeFlagged(st, o.flaggedPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flagged document written to %s\n", o.flaggedPath)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", o.tracePath)
	}
	if o.metricsPath != "" {
		if err := reg.WriteFile(o.metricsPath); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", o.metricsPath)
	}
	if srv != nil {
		srv.Linger(o.telemetryLinger)
	}
	return nil
}

// serveSimulation runs the seeded simulator quiet — no registry, no
// meter, no detection artifacts of its own — as the service's traffic
// source: every simulation cycle's ratings are applied to the store as
// one epoch, so the served state at epoch E is byte-identical to a batch
// run stopped at cycle E. With -record-requests the applied batches are
// also written as a JSONL request log (with trailing epoch and flagged
// queries), the input to -replay-requests.
func serveSimulation(stdout io.Writer, cfg collusion.SimConfig, st *service.Store, srv *serve.Server, o serviceOpts) error {
	var rec *bufio.Writer
	var recFile *os.File
	if o.recordPath != "" {
		f, err := os.Create(o.recordPath)
		if err != nil {
			return err
		}
		recFile = f
		rec = bufio.NewWriter(f)
	}
	// The traffic-source sim carries none of the observability the
	// service owns; it just simulates peers and emits ratings.
	cfg.Obs = nil
	cfg.Meter = nil
	cfg.Tracer = nil
	cfg.Spans = nil
	cfg.Progress = nil
	cfg.CycleTimer = nil
	if srv != nil {
		cfg.OnCycle = func(cycle int, scores []float64) { srv.SetCycle(cycle) }
	}
	var line []byte
	tap := simulator.NewBatchTap(&cfg, func(cycle int, batch []ingest.Rating) error {
		if rec != nil {
			line = service.AppendRequestIngest(line[:0], batch)
			if _, err := rec.Write(line); err != nil {
				return err
			}
		}
		_, err := st.Apply(batch)
		return err
	})
	if _, err := collusion.RunSimulation(cfg); err != nil {
		return err
	}
	if err := tap.Err(); err != nil {
		return err
	}
	if rec != nil {
		line = service.AppendRequestQuery(line[:0], "epoch")
		line = service.AppendRequestQuery(line, "flagged")
		if _, err := rec.Write(line); err != nil {
			return err
		}
		if err := rec.Flush(); err != nil {
			return err
		}
		if err := recFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "request log written to %s\n", o.recordPath)
	}
	return nil
}

// replayRequests feeds a recorded JSONL request log through the store in
// order, writing each response line to -replay-out (stdout by default).
// Replaying the same log against the same configuration reproduces the
// original served run byte for byte. A failed flush or close of
// -replay-out is an error: the responses were not all written.
func replayRequests(stdout io.Writer, st *service.Store, o serviceOpts) error {
	in, err := os.Open(o.replayPath)
	if err != nil {
		return err
	}
	defer func() { _ = in.Close() }()
	if o.replayOut == "" {
		return service.Replay(st, in, stdout)
	}
	f, err := os.Create(o.replayOut)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := service.Replay(st, in, bw); err != nil {
		// Keep the responses written before the failing line.
		_ = bw.Flush()
		_ = f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("replay-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("replay-out: %w", err)
	}
	fmt.Fprintf(stdout, "replay responses written to %s\n", o.replayOut)
	return nil
}
