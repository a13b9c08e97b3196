package core

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// TestTracingOffAddsNoAllocs pins the acceptance criterion that a
// disabled tracer adds zero allocations to the detector hot path: the
// Detect allocation count is identical with no tracer and with an
// explicitly disabled one.
func TestTracingOffAddsNoAllocs(t *testing.T) {
	l := benchLedger(200)
	bare := NewBasic(DefaultThresholds())
	baseline := testing.AllocsPerRun(5, func() { bare.Detect(l) })
	off := NewBasic(DefaultThresholds())
	off.Trace = obs.NewTracer(nil)
	if got := testing.AllocsPerRun(5, func() { off.Detect(l) }); got != baseline {
		t.Fatalf("disabled tracer changed Detect allocations: %v, baseline %v", got, baseline)
	}
	bareOpt := NewOptimized(DefaultThresholds())
	optBase := testing.AllocsPerRun(5, func() { bareOpt.Detect(l) })
	offOpt := NewOptimized(DefaultThresholds())
	offOpt.Trace = obs.NewTracer(nil)
	if got := testing.AllocsPerRun(5, func() { offOpt.Detect(l) }); got != optBase {
		t.Fatalf("disabled tracer changed optimized Detect allocations: %v, baseline %v", got, optBase)
	}
}

// BenchmarkBasicDetect200TracingDisabled is BenchmarkBasicDetect200 with
// an explicitly disabled tracer attached, so `benchjson -compare` can
// show the two are within noise of each other.
func BenchmarkBasicDetect200TracingDisabled(b *testing.B) {
	l := benchLedger(200)
	d := NewBasic(DefaultThresholds())
	d.Trace = obs.NewTracer(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(l)
	}
}

// TestTracingLeavesDetectionUnchanged pins that an audit trace only
// reports: Detect, DetectAmong and DetectIncremental of both detectors find
// the same pairs and flags, and charge the same meter counters, names
// included, traced or not. In the first ledger N_(1,2) = 25 passes the
// forward frequency gate and N_(2,1) = 1 stops the pair at the reverse
// one, so Optimized registers a bound-check counter that stays at zero.
// The rest are random.
func TestTracingLeavesDetectionUnchanged(t *testing.T) {
	th := DefaultThresholds()
	th.TR = 0
	probe := reputation.NewLedger(6)
	for k := 0; k < 25; k++ {
		probe.Record(2, 1, 1)
	}
	probe.Record(1, 2, 1)
	ledgers := []*reputation.Ledger{probe}
	r := rng.New(3).Child("traced-untraced")
	for k := 0; k < 8; k++ {
		ledgers = append(ledgers, randomDetectorLedger(r, r.IntRange(4, 40)))
	}
	newDetectors := []func(*metrics.CostMeter, *obs.Tracer) IncrementalDetector{
		func(m *metrics.CostMeter, tr *obs.Tracer) IncrementalDetector {
			d := NewBasic(th)
			d.Meter, d.Trace = m, tr
			return d
		},
		func(m *metrics.CostMeter, tr *obs.Tracer) IncrementalDetector {
			d := NewOptimized(th)
			d.Meter, d.Trace = m, tr
			return d
		},
	}
	passes := []struct {
		name string
		run  func(IncrementalDetector, *reputation.Ledger) Result
	}{
		{"Detect", func(d IncrementalDetector, l *reputation.Ledger) Result { return d.Detect(l) }},
		{"DetectAmong", func(d IncrementalDetector, l *reputation.Ledger) Result {
			candidates := make([]int, l.Size())
			for i := range candidates {
				candidates[i] = i
			}
			return d.DetectAmong(l, candidates)
		}},
		{"DetectIncremental", func(d IncrementalDetector, l *reputation.Ledger) Result {
			d.DetectIncremental(l, l.DirtyTargets())
			return d.DetectIncremental(l, nil) // replayed from the memo
		}},
	}
	for li, l := range ledgers {
		for _, newDet := range newDetectors {
			for _, p := range passes {
				var plain, traced metrics.CostMeter
				var sink obs.BufferSink
				pd, td := newDet(&plain, nil), newDet(&traced, obs.NewTracer(&sink))
				tag := pd.Name() + " " + p.name + " ledger " + itoa(li)
				compareResults(t, tag, p.run(td, l), p.run(pd, l))
				if got, want := traced.Snapshot(), plain.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: traced pass charged %v, untraced %v", tag, got, want)
				}
				if !bytes.Contains(sink.Bytes(), []byte(`"type":"pair_audit"`)) {
					t.Fatalf("%s: the traced pass audited no pair", tag)
				}
			}
		}
	}
}
