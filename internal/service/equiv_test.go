package service_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/service"
	"github.com/p2psim/collusion/internal/simulator"
)

// equivConfig is the shrunk paper setup the equivalence suite drives both
// planes with.
func equivConfig(workers, shards, window int) simulator.Config {
	cfg := simulator.DefaultConfig()
	cfg.Overlay.Nodes = 60
	cfg.SimCycles = 8
	cfg.QueryCycles = 10
	cfg.Detector = simulator.DetectorOptimized
	cfg.Workers = workers
	cfg.IngestShards = shards
	cfg.WindowCycles = window
	return cfg
}

// newStoreFor builds a service store from the same configuration a batch
// run would use, with engine and detector constructed by the exact same
// code path (simulator.BuildEngine / BuildPairDetector).
func newStoreFor(t *testing.T, cfg simulator.Config, reg *obs.Registry) *service.Store {
	t.Helper()
	built := cfg
	built.Obs = reg
	st, err := service.New(service.Config{
		Nodes:        built.Overlay.Nodes,
		Engine:       simulator.BuildEngine(built),
		Detector:     simulator.BuildPairDetector(built),
		Thresholds:   built.DetectionThresholds(),
		IngestShards: built.IngestShards,
		WindowCycles: built.WindowCycles,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stripServiceMetrics drops the service-plane-only metric families
// (service_*) from a Prometheus exposition, leaving exactly the families
// a batch run exports.
func stripServiceMetrics(dump []byte) string {
	var keep []string
	for _, line := range strings.Split(string(dump), "\n") {
		name := strings.TrimPrefix(line, "# TYPE ")
		if strings.HasPrefix(name, "colsim_service_") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestServedMatchesBatch is the tentpole acceptance gate: a served run —
// the seeded simulator running quiet as a traffic source, each cycle's
// ratings applied to the store as one epoch — must be byte-identical to
// the plain batch run of the same configuration, at EVERY epoch for the
// scores and at the end for the flag set, first-detection epochs,
// evidence pairs, frozen ledger and registry metrics. Both planes drive
// the same epoch transition (internal/epoch), so this is the check that
// they feed it identically. The combos sweep
// engine worker count, ingest shard count (including the legacy direct
// path) and both ledger modes, none of which may leak into outputs.
func TestServedMatchesBatch(t *testing.T) {
	combos := []struct{ workers, shards, window int }{
		{1, 0, 0},
		{1, 1, 0},
		{1, 8, 4},
		{4, 1, 4},
		{4, 8, 0},
	}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("w%d_s%d_win%d", c.workers, c.shards, c.window), func(t *testing.T) {
			// Batch plane: the ordinary simulation run, metrics observed.
			regA := obs.NewRegistry(nil)
			cfgA := equivConfig(c.workers, c.shards, c.window)
			cfgA.Obs = regA
			resA, err := simulator.Run(cfgA)
			if err != nil {
				t.Fatal(err)
			}

			// Served plane: same simulator config, but quiet — the store
			// observes the identical rating stream and recomputes
			// everything itself.
			regB := obs.NewRegistry(nil)
			cfgB := equivConfig(c.workers, c.shards, c.window)
			st := newStoreFor(t, cfgB, regB)
			defer st.Close()

			// Per-epoch check, chained to run after the tap's delivery:
			// the snapshot at epoch E must carry bitwise the scores the
			// batch run reports at cycle E.
			cfgB.OnCycle = func(cycle int, scores []float64) {
				sn := st.Acquire()
				defer sn.Release()
				if sn.Epoch() != int64(cycle) {
					t.Fatalf("cycle %d: snapshot epoch %d", cycle, sn.Epoch())
				}
				if !reflect.DeepEqual(sn.Scores(), scores) {
					t.Fatalf("cycle %d: served scores diverge from batch scores", cycle)
				}
			}
			tap := simulator.NewBatchTap(&cfgB, func(cycle int, batch []ingest.Rating) error {
				_, err := st.Apply(batch)
				return err
			})
			resB, err := simulator.Run(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			if err := tap.Err(); err != nil {
				t.Fatal(err)
			}

			// Final-state identity: flags, first-detection epochs, pairs,
			// scores, and the frozen period ledger row by row.
			sn := st.Acquire()
			defer sn.Release()
			if sn.Epoch() != int64(cfgB.SimCycles) {
				t.Fatalf("final epoch %d, want %d", sn.Epoch(), cfgB.SimCycles)
			}
			if !reflect.DeepEqual(sn.Scores(), resA.Scores) {
				t.Fatal("final scores differ from batch run")
			}
			if !reflect.DeepEqual(sn.Flagged(), resA.Flagged) {
				t.Fatal("flag sets differ from batch run")
			}
			if !reflect.DeepEqual(sn.Pairs(), resA.DetectedPairs) {
				t.Fatalf("evidence pairs differ: served %v, batch %v", sn.Pairs(), resA.DetectedPairs)
			}
			for i, cyc := range resA.DetectionCycle {
				if sn.FirstFlagged(i) != int64(cyc) {
					t.Fatalf("node %d: first flagged at epoch %d, batch cycle %d", i, sn.FirstFlagged(i), cyc)
				}
			}
			// The quiet sim's own outputs must equal the observed batch
			// run too (sanity that the tap changed nothing).
			if !reflect.DeepEqual(resB.Scores, resA.Scores) || !reflect.DeepEqual(resB.Flagged, resA.Flagged) {
				t.Fatal("tap perturbed the simulation outputs")
			}
			// Both planes keep one period ledger — the cumulative history,
			// or the final window when windowed — so the frozen snapshot
			// ledger must equal the batch result's row by row in either
			// mode.
			n := resA.Ledger.Size()
			period := sn.Ledger()
			if period.Size() != n {
				t.Fatalf("snapshot ledger size %d, want %d", period.Size(), n)
			}
			for target := 0; target < n; target++ {
				gp, wp := period.PairCountsOf(target), resA.Ledger.PairCountsOf(target)
				if !reflect.DeepEqual(gp.Raters, wp.Raters) ||
					!reflect.DeepEqual(gp.Total, wp.Total) ||
					!reflect.DeepEqual(gp.Pos, wp.Pos) ||
					!reflect.DeepEqual(gp.Neg, wp.Neg) {
					t.Fatalf("snapshot ledger row %d differs from batch ledger", target)
				}
			}

			// Registry identity: after the store performs the batch run's
			// end-of-run pair-frequency observation, the two registries
			// must export byte-identical Prometheus text once the
			// service-plane-only families are stripped.
			if _, err := st.ObservePairFrequencies(); err != nil {
				t.Fatal(err)
			}
			var dumpA, dumpB bytes.Buffer
			if err := regA.WritePrometheus(&dumpA); err != nil {
				t.Fatal(err)
			}
			if err := regB.WritePrometheus(&dumpB); err != nil {
				t.Fatal(err)
			}
			if got, want := stripServiceMetrics(dumpB.Bytes()), dumpA.String(); got != want {
				t.Fatalf("metrics diverge\n--- served (stripped) ---\n%s\n--- batch ---\n%s", got, want)
			}
		})
	}
}

// TestReplayMatchesDirect pins the replay plane: encoding a served run's
// batches as a JSONL request log and replaying it through a fresh store
// yields byte-identical responses on a second replay, and its final
// flagged document equals the directly-served store's.
func TestReplayMatchesDirect(t *testing.T) {
	cfg := equivConfig(1, 1, 0)
	st := newStoreFor(t, cfg, nil)
	defer st.Close()

	// Record the request log while serving directly.
	var log []byte
	tap := simulator.NewBatchTap(&cfg, func(cycle int, batch []ingest.Rating) error {
		log = service.AppendRequestIngest(log, batch)
		_, err := st.Apply(batch)
		return err
	})
	if _, err := simulator.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := tap.Err(); err != nil {
		t.Fatal(err)
	}
	log = service.AppendRequestQuery(log, "epoch")
	log = service.AppendRequestQuery(log, "flagged")

	replayOnce := func() []byte {
		cfg2 := equivConfig(1, 1, 0)
		st2 := newStoreFor(t, cfg2, nil)
		defer st2.Close()
		var out bytes.Buffer
		if err := service.Replay(st2, bytes.NewReader(log), &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	out1, out2 := replayOnce(), replayOnce()
	if !bytes.Equal(out1, out2) {
		t.Fatal("replay is not deterministic")
	}

	sn := st.Acquire()
	defer sn.Release()
	direct := service.AppendFlaggedSnapshot(nil, sn)
	if !bytes.HasSuffix(out1, direct) {
		t.Fatalf("replayed flagged document differs from directly served store:\nreplay tail: %s\ndirect: %s",
			lastLine(out1), direct)
	}
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}
