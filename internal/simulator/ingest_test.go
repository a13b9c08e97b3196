package simulator

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/p2psim/collusion/internal/obs"
)

// runWithShards executes tracedConfig with the given ingest shard count
// and window length, returning the result and the trace bytes.
func runWithShards(t *testing.T, shards, window int) (*Result, []byte) {
	t.Helper()
	var sink obs.BufferSink
	cfg := tracedConfig()
	cfg.IngestShards = shards
	cfg.WindowCycles = window
	cfg.Tracer = obs.NewTracer(&sink)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.Bytes()
}

// requireResultsEqual compares every exported observable of two runs,
// including the full cumulative ledger.
func requireResultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Fatalf("%s: scores differ", label)
	}
	if !reflect.DeepEqual(got.Flagged, want.Flagged) ||
		!reflect.DeepEqual(got.DetectedPairs, want.DetectedPairs) ||
		!reflect.DeepEqual(got.DetectionCycle, want.DetectionCycle) {
		t.Fatalf("%s: detection outcomes differ", label)
	}
	if got.RequestsTotal != want.RequestsTotal ||
		got.RequestsToColluders != want.RequestsToColluders ||
		got.RatingsRecorded != want.RatingsRecorded {
		t.Fatalf("%s: request/rating counters differ", label)
	}
	n := want.Ledger.Size()
	if got.Ledger.Size() != n {
		t.Fatalf("%s: ledger sizes differ", label)
	}
	for target := 0; target < n; target++ {
		gp, wp := got.Ledger.PairCountsOf(target), want.Ledger.PairCountsOf(target)
		if !reflect.DeepEqual(gp.Raters, wp.Raters) ||
			!reflect.DeepEqual(gp.Total, wp.Total) ||
			!reflect.DeepEqual(gp.Pos, wp.Pos) ||
			!reflect.DeepEqual(gp.Neg, wp.Neg) {
			t.Fatalf("%s: ledger row %d differs", label, target)
		}
	}
}

// TestIngestShardsByteIdenticalRun is the subsystem's simulator-level
// acceptance gate: every IngestShards value >= 1 must produce identical
// results AND byte-identical traces (the ingest_audit attributes are
// batch-derived, never scheduling-derived). IngestShards=0, the direct
// single-writer path, must produce identical results too — its trace
// just lacks the ingest_audit events.
func TestIngestShardsByteIdenticalRun(t *testing.T) {
	legacy, _ := runWithShards(t, 0, 0)
	ref, refTrace := runWithShards(t, 1, 0)
	requireResultsEqual(t, "shards=0 vs shards=1", legacy, ref)
	if !bytes.Contains(refTrace, []byte(`"type":"ingest_audit"`)) {
		t.Fatal("sharded run trace carries no ingest_audit events")
	}
	for _, k := range []int{2, 4, 8} {
		res, tr := runWithShards(t, k, 0)
		requireResultsEqual(t, "sharded run", res, ref)
		if !bytes.Equal(tr, refTrace) {
			t.Fatalf("shards=%d changed the trace bytes", k)
		}
	}
}

// TestIngestShardsWindowedRun covers the sharded-intake + delta-ring
// combination: windowed runs must also be invariant across shard counts,
// and the windowed result must match the legacy windowed path.
func TestIngestShardsWindowedRun(t *testing.T) {
	const window = 3
	legacy, _ := runWithShards(t, 0, window)
	ref, refTrace := runWithShards(t, 1, window)
	requireResultsEqual(t, "windowed shards=0 vs shards=1", legacy, ref)
	if ref.WindowDeltaRows == 0 {
		t.Fatal("windowed run reported zero delta rows")
	}
	for _, k := range []int{4, 8} {
		res, tr := runWithShards(t, k, window)
		requireResultsEqual(t, "windowed sharded run", res, ref)
		if !bytes.Equal(tr, refTrace) {
			t.Fatalf("windowed shards=%d changed the trace bytes", k)
		}
		if res.WindowDeltaRows != ref.WindowDeltaRows {
			t.Fatalf("windowed shards=%d: WindowDeltaRows = %d, want %d",
				k, res.WindowDeltaRows, ref.WindowDeltaRows)
		}
	}
}

// TestIngestShardsRecordsPerShardMetric checks the run-side intake
// metric: a sharded run observes once per shard per simulation cycle.
func TestIngestShardsRecordsPerShardMetric(t *testing.T) {
	reg := obs.NewRegistry(nil)
	cfg := tracedConfig()
	cfg.IngestShards = 4
	cfg.Obs = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("ingest.records_per_shard")
	if h.Count() != int64(4*cfg.SimCycles) {
		t.Fatalf("histogram count = %d, want %d (4 shards × %d cycles)",
			h.Count(), 4*cfg.SimCycles, cfg.SimCycles)
	}
	if h.Sum() != int64(res.RatingsRecorded) {
		t.Fatalf("histogram sum = %d, want %d ratings", h.Sum(), res.RatingsRecorded)
	}
}
