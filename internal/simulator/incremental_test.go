package simulator

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/epoch"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
)

// epochSide is one epoch transition built the way Run builds it, with its
// own cost meter, registry and (optionally) trace.
type epochSide struct {
	ep    *epoch.State
	meter *metrics.CostMeter
	reg   *obs.Registry
	trace obs.BufferSink
}

// newEpochSide builds the epoch Run would build for cfg. With hide set,
// the pair detector is wrapped in a struct that exposes only
// core.Detector, so the epoch cannot see DetectIncremental and runs the
// from-scratch Detect every epoch.
func newEpochSide(cfg Config, traced, hide bool) *epochSide {
	s := &epochSide{meter: &metrics.CostMeter{}, reg: obs.NewRegistry(nil)}
	cfg.Meter = s.meter
	cfg.Obs = s.reg
	if traced {
		cfg.Tracer = obs.NewTracer(&s.trace)
	}
	ecfg := epochConfig(cfg)
	if hide {
		ecfg.Detector = struct{ core.Detector }{ecfg.Detector}
	}
	s.ep = epoch.New(ecfg)
	return s
}

// runIncrementalVsFull records cfg's rating stream with a BatchTap on an
// uninstrumented run and applies every cycle's batch to two epochs: inc
// with the built detector, which takes the incremental path, and full
// with the same detector hidden behind core.Detector. After every epoch
// the two must agree on score bits, flags, first-flagged epochs, evidence
// pairs and cost-meter charges.
func runIncrementalVsFull(t *testing.T, cfg Config, traced bool) (inc, full *epochSide) {
	t.Helper()
	inc = newEpochSide(cfg, traced, false)
	full = newEpochSide(cfg, traced, true)
	source := cfg
	tap := NewBatchTap(&source, func(cycle int, batch []ingest.Rating) error {
		inc.ep.Apply(batch)
		full.ep.Apply(batch)
		requireEpochsMatch(t, cycle, inc, full)
		return nil
	})
	if _, err := Run(source); err != nil {
		t.Fatal(err)
	}
	if err := tap.Err(); err != nil {
		t.Fatal(err)
	}
	if got := inc.ep.Epoch(); got != int64(cfg.SimCycles) {
		t.Fatalf("applied %d epochs, want %d", got, cfg.SimCycles)
	}
	if len(inc.ep.Pairs()) == 0 {
		t.Fatal("no pairs detected; the comparison would be vacuous")
	}
	return inc, full
}

// requireEpochsMatch compares the two sides after one epoch.
func requireEpochsMatch(t *testing.T, cycle int, inc, full *epochSide) {
	t.Helper()
	a, b := inc.ep, full.ep
	for i := range b.Scores() {
		if math.Float64bits(a.Scores()[i]) != math.Float64bits(b.Scores()[i]) {
			t.Fatalf("epoch %d: score[%d] = %v incrementally, %v from scratch", cycle, i, a.Scores()[i], b.Scores()[i])
		}
		if a.Flagged()[i] != b.Flagged()[i] || a.FirstFlagged()[i] != b.FirstFlagged()[i] {
			t.Fatalf("epoch %d: node %d flagged %v at epoch %d incrementally, %v at %d from scratch",
				cycle, i, a.Flagged()[i], a.FirstFlagged()[i], b.Flagged()[i], b.FirstFlagged()[i])
		}
	}
	if !reflect.DeepEqual(a.Pairs(), b.Pairs()) {
		t.Fatalf("epoch %d: pairs differ\ninc  %+v\nfull %+v", cycle, a.Pairs(), b.Pairs())
	}
	if got, want := inc.meter.Snapshot(), full.meter.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("epoch %d: meter charges differ\ninc  %v\nfull %v", cycle, got, want)
	}
}

// memoCounters returns a side's incremental hit and miss counters.
func memoCounters(s *epochSide) (hits, misses int64) {
	return s.reg.Counter("detect.incremental_hits").Value(), s.reg.Counter("detect.incremental_misses").Value()
}

// TestIncrementalRunMatchesFullDetection pins the epoch's incremental
// wiring. The cumulative path (dirty rows from Ledger.DirtyTargets) and
// the windowed path (dirty rows from WindowLedger.Roll) both take
// DetectIncremental; the same rating stream applied to an epoch whose
// detector hides DetectIncremental re-screens every pair from scratch.
// Any divergence at any epoch means the memoized screens changed
// behavior.
func TestIncrementalRunMatchesFullDetection(t *testing.T) {
	for _, det := range []DetectorKind{DetectorBasic, DetectorOptimized} {
		for _, window := range []int{0, 4} {
			name := det.String()
			if window > 0 {
				name += "_windowed"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.ColluderGoodProb = 0.2
				cfg.Detector = det
				cfg.WindowCycles = window
				inc, full := runIncrementalVsFull(t, cfg, false)
				if _, misses := memoCounters(inc); misses == 0 {
					t.Fatal("incremental side recorded no memo misses; it never took the incremental path")
				}
				if hits, misses := memoCounters(full); hits != 0 || misses != 0 {
					t.Fatalf("from-scratch side recorded hits=%d misses=%d, want 0/0", hits, misses)
				}
			})
		}
	}
}

// TestIncrementalRunTraceMatchesFullDetection extends the equivalence to
// the audit trail: a traced pass runs exactly as an untraced one, memo
// included, and then audits every high pair in full-pass order, so the
// incremental epoch's trace must be byte-identical to the from-scratch
// epoch's, and its memo counters must equal those of an untraced
// incremental epoch on the same stream, for Basic and Optimized,
// cumulative and windowed.
func TestIncrementalRunTraceMatchesFullDetection(t *testing.T) {
	for _, det := range []DetectorKind{DetectorBasic, DetectorOptimized} {
		for _, window := range []int{0, 4} {
			cfg := tracedConfig()
			cfg.Detector = det
			cfg.WindowCycles = window
			inc, full := runIncrementalVsFull(t, cfg, true)
			if !bytes.Contains(inc.trace.Bytes(), []byte(`"type":"candidate_audit"`)) {
				t.Fatalf("%s window %d: trace holds no candidate audits", det, window)
			}
			if !bytes.Equal(inc.trace.Bytes(), full.trace.Bytes()) {
				t.Fatalf("%s window %d: incremental trace differs from the from-scratch trace", det, window)
			}
			plain, _ := runIncrementalVsFull(t, cfg, false)
			hits, misses := memoCounters(inc)
			wantHits, wantMisses := memoCounters(plain)
			if hits != wantHits || misses != wantMisses {
				t.Fatalf("%s window %d: traced memo counters hits=%d misses=%d, untraced hits=%d misses=%d",
					det, window, hits, misses, wantHits, wantMisses)
			}
			if misses == 0 {
				t.Fatalf("%s window %d: traced incremental epoch recorded no memo misses", det, window)
			}
		}
	}
}

// TestIncrementalHitMissCounters pins the memo telemetry: the incremental
// epoch records cache hits (unchanged pairs replayed) and misses (dirty
// pairs re-screened) on the cumulative path, misses plus the per-epoch
// dirty-row histogram on the windowed path (windowed screens concentrate
// on freshly-rated rows, so hits are rare there and not asserted), and the
// from-scratch epoch records neither counter.
func TestIncrementalHitMissCounters(t *testing.T) {
	// The default population is quiet enough that screened pairs
	// regularly survive an epoch untouched, so the cache actually hits;
	// tracedConfig's flood would dirty every screened row every epoch.
	cfg := DefaultConfig()
	cfg.ColluderGoodProb = 0.2
	cfg.Detector = DetectorOptimized

	inc, full := runIncrementalVsFull(t, cfg, false)
	if hits, misses := memoCounters(inc); hits == 0 || misses == 0 {
		t.Fatalf("cumulative incremental epoch recorded hits=%d misses=%d, want both > 0", hits, misses)
	}
	if hits, misses := memoCounters(full); hits != 0 || misses != 0 {
		t.Fatalf("cumulative from-scratch epoch recorded hits=%d misses=%d, want 0/0", hits, misses)
	}

	cfg.WindowCycles = 8
	inc, full = runIncrementalVsFull(t, cfg, false)
	if _, misses := memoCounters(inc); misses == 0 {
		t.Fatal("windowed incremental epoch recorded no misses")
	}
	if h := inc.reg.Histogram("window.dirty_rows_per_cycle"); h.Count() != int64(cfg.SimCycles) {
		t.Fatalf("windowed epoch recorded %d dirty_rows_per_cycle observations, want %d", h.Count(), cfg.SimCycles)
	}
	if hits, misses := memoCounters(full); hits != 0 || misses != 0 {
		t.Fatalf("windowed from-scratch epoch recorded hits=%d misses=%d, want 0/0", hits, misses)
	}
}
