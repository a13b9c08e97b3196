package simulator

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
)

// spanConfig is the acceptance scenario for the span timeline: a seeded
// windowed run with the optimized detector, so every instrumented phase
// (ingest, window.roll, eigentrust, detect) appears in the timeline.
func spanConfig() Config {
	cfg := smallConfig()
	cfg.Pretrusted = nil
	cfg.Colluders = []int{0, 1, 2, 3, 4, 5, 6, 7}
	cfg.ColluderGoodProb = 0.2
	cfg.Engine = EngineEigenTrust
	cfg.Detector = DetectorOptimized
	cfg.WindowCycles = 3
	return cfg
}

// spanTimeline runs spanConfig with the given worker count (and a fresh
// meter, as every CLI invocation has) and returns the emitted span
// timeline bytes.
func spanTimeline(t *testing.T, workers int) []byte {
	t.Helper()
	var sink obs.BufferSink
	var meter metrics.CostMeter
	cfg := spanConfig()
	cfg.Workers = workers
	cfg.Meter = &meter
	cfg.Spans = obs.NewSpanTracer(&sink, &meter)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Spans.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// TestSpanTimelineByteIdentical pins the tentpole acceptance criterion:
// the span timeline is byte-identical across repeats and worker counts
// {1, 4} on a seeded windowed run — span costs come from the meter
// total, which the parallel-equivalence tests pin invariant.
func TestSpanTimelineByteIdentical(t *testing.T) {
	base := spanTimeline(t, 1)
	if len(base) == 0 {
		t.Fatal("span-traced run produced no events")
	}
	for _, phase := range []string{`"name":"run"`, `"name":"cycle"`, `"name":"ingest"`,
		`"name":"window.roll"`, `"name":"eigentrust"`, `"name":"detect"`} {
		if !bytes.Contains(base, []byte(phase)) {
			t.Errorf("timeline missing %s", phase)
		}
	}
	// The engine span's payload exposes the sparsity the sparse multiply
	// exploited, alongside the iteration count.
	for _, attr := range []string{`"iterations":`, `"nnz":`, `"dangling_rows":`} {
		if !bytes.Contains(base, []byte(attr)) {
			t.Errorf("eigentrust span missing payload attr %s", attr)
		}
	}
	if !bytes.Equal(base, spanTimeline(t, 1)) {
		t.Fatal("repeated seeded runs produced different span timelines")
	}
	if !bytes.Equal(base, spanTimeline(t, 4)) {
		t.Fatal("workers=4 changed the span timeline bytes")
	}
}

// TestSpanTimelineBalanced folds the timeline and checks bracketing:
// every span_begin has a matching span_end and the run ends at depth
// zero, so downstream folding (traceanalyze spans) never sees a
// truncated tree from a completed run.
func TestSpanTimelineBalanced(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(string(spanTimeline(t, 1)), "\n"), "\n")
	depth := 0
	begins, ends := 0, 0
	for _, line := range lines {
		switch {
		case strings.Contains(line, `"type":"span_begin"`):
			begins++
			depth++
		case strings.Contains(line, `"type":"span_end"`):
			ends++
			depth--
		default:
			t.Fatalf("unexpected event in span timeline: %s", line)
		}
		if depth < 0 {
			t.Fatalf("span_end without open span at: %s", line)
		}
	}
	if depth != 0 || begins != ends {
		t.Fatalf("unbalanced timeline: %d begins, %d ends, final depth %d", begins, ends, depth)
	}
	// run + per-cycle (cycle, ingest, window.roll, eigentrust, detect).
	want := 1 + spanConfig().SimCycles*5
	if begins != want {
		t.Fatalf("timeline has %d spans, want %d", begins, want)
	}
}

// TestSpanSinkFailureSurfaces pins that a failing span sink becomes a
// run error rather than a silently truncated timeline.
func TestSpanSinkFailureSurfaces(t *testing.T) {
	cfg := spanConfig()
	cfg.Spans = obs.NewSpanTracer(brokenSink{}, nil)
	_, err := Run(cfg)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("run error %v, want %v", err, errDiskFull)
	}
	if !strings.Contains(fmt.Sprint(err), "span sink") {
		t.Fatalf("error %q does not name the span sink", err)
	}
}

// TestSpansForceSequentialAveraged pins that RunAveragedParallel treats a
// shared (stateful, non-concurrency-safe) span tracer like an OnCycle
// observer: runs execute sequentially and the timeline bytes match for
// every worker count.
func TestSpansForceSequentialAveraged(t *testing.T) {
	averaged := func(workers int) []byte {
		var sink obs.BufferSink
		var meter metrics.CostMeter
		cfg := spanConfig()
		cfg.Meter = &meter
		cfg.Spans = obs.NewSpanTracer(&sink, &meter)
		if _, err := RunAveragedParallel(cfg, 3, workers); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Spans.Close(); err != nil {
			t.Fatal(err)
		}
		return sink.Bytes()
	}
	w1, w4 := averaged(1), averaged(4)
	if len(w1) == 0 {
		t.Fatal("averaged span-traced run produced no events")
	}
	if !bytes.Equal(w1, w4) {
		t.Fatal("worker count changed the averaged span timeline bytes")
	}
}
