package obs

import "github.com/p2psim/collusion/internal/metrics"

// SpanObserver is notified when spans open and close. The one
// implementation that matters lives in internal/obs/prof: a wall-clock
// SpanTimer recording span durations into registry histograms. Keeping
// the clock behind this interface keeps the span timeline itself purely
// cycle-stamped — wall time flows one way, into histograms, and never
// into the deterministic JSONL stream.
type SpanObserver interface {
	SpanBegin(name string)
	SpanEnd(name string)
}

// SpanTracer emits a hierarchical span timeline — run → cycle → phase
// (ingest, window.roll, eigentrust, detect, manager.exchange) — through
// the canonical JSONL encoder. Every event is deterministic: span IDs are
// sequential, parents come from an explicit stack, and the only payload a
// span carries beyond its identity is cycle-time data (cost-meter deltas,
// dirty-row counts, memo hit/miss deltas), so a seeded run produces a
// byte-identical timeline on every replay, for every worker count.
//
// A nil SpanTracer (or one with a nil sink) is a valid disabled tracer:
// Enabled reports false without allocating, and every method is a no-op,
// so instrumented hot paths guard with Enabled and pay nothing when spans
// are off (pinned by TestTelemetryOffAddsNoAllocs).
//
// Unlike Tracer, a SpanTracer is stateful (the open-span stack) and is
// NOT safe for concurrent use: it describes one sequential run loop.
// RunAveragedParallel forces runs sequential when a shared span tracer is
// attached, exactly as it does for OnCycle observers.
type SpanTracer struct {
	tr    *Tracer
	meter *metrics.CostMeter

	// Observer, if non-nil, is notified at every Begin/End. Begin notifies
	// after the span_begin event is encoded and End notifies before
	// span_end encoding starts, so a wall-clock observer times the span
	// body without the encoder.
	Observer SpanObserver

	nextID int64
	stack  []spanFrame
}

// spanFrame is one open span: its ID and name, plus the meter total
// captured at Begin so End can emit the span's exact operation-cost delta.
type spanFrame struct {
	id   int64
	name string
	cost int64
}

// NewSpanTracer returns a span tracer writing to sink. A nil sink yields
// a disabled tracer. The meter, if non-nil, prices every span: span_end
// carries the meter-total delta accrued between Begin and End — a
// deterministic, worker-count-invariant cost the operation-cost
// equivalence tests pin, where wall time would differ on every run.
func NewSpanTracer(sink Sink, meter *metrics.CostMeter) *SpanTracer {
	return &SpanTracer{tr: NewTracer(sink), meter: meter}
}

// Enabled reports whether spans will be recorded. Nil-safe and
// allocation-free, so hot paths can guard bracketing work with it.
func (s *SpanTracer) Enabled() bool { return s != nil && s.tr.Enabled() }

// SetCycle stamps subsequent span events with the given simulation cycle.
func (s *SpanTracer) SetCycle(cycle int) {
	if !s.Enabled() {
		return
	}
	s.tr.SetCycle(cycle)
}

// Begin opens a span nested under the innermost open span and emits its
// span_begin event: the span's sequential ID, its parent's ID (0 at the
// root), and its name, followed by any extra attributes in argument order.
func (s *SpanTracer) Begin(name string, attrs ...Attr) {
	if !s.Enabled() {
		return
	}
	s.nextID++
	parent := int64(0)
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1].id
	}
	s.stack = append(s.stack, spanFrame{id: s.nextID, name: name, cost: s.total()})
	head := [3]Attr{I64("id", s.nextID), I64("parent", parent), Str("name", name)}
	s.tr.Emit("span_begin", append(head[:], attrs...)...)
	if s.Observer != nil {
		s.Observer.SpanBegin(name)
	}
}

// End closes the innermost open span, which must carry the given name —
// a mismatch is a bracketing bug in the instrumentation and panics. The
// span_end event carries the span ID, its name, the cost-meter delta
// accrued since Begin, and any extra attributes in argument order.
func (s *SpanTracer) End(name string, attrs ...Attr) {
	if !s.Enabled() {
		return
	}
	if len(s.stack) == 0 {
		panic("obs: SpanTracer.End(" + name + ") with no open span")
	}
	top := s.stack[len(s.stack)-1]
	if top.name != name {
		panic("obs: SpanTracer.End(" + name + ") does not match open span " + top.name)
	}
	s.stack = s.stack[:len(s.stack)-1]
	if s.Observer != nil {
		s.Observer.SpanEnd(name)
	}
	head := [3]Attr{I64("id", top.id), Str("name", name), I64("cost", s.total()-top.cost)}
	s.tr.Emit("span_end", append(head[:], attrs...)...)
}

// Depth returns the number of currently open spans.
func (s *SpanTracer) Depth() int {
	if s == nil {
		return 0
	}
	return len(s.stack)
}

// Err returns the first sink error encountered, if any.
func (s *SpanTracer) Err() error {
	if s == nil {
		return nil
	}
	return s.tr.Err()
}

// Close closes the sink and surfaces any latched emit error.
func (s *SpanTracer) Close() error {
	if s == nil {
		return nil
	}
	return s.tr.Close()
}

// total reads the meter total priced into span cost deltas (0 without a
// meter). Meter totals are worker-count-invariant (the
// parallel-equivalence tests pin exact charge equality), so the deltas
// are too.
func (s *SpanTracer) total() int64 {
	if s.meter == nil {
		return 0
	}
	return s.meter.Total()
}

// TeeSink fans every trace write out to several sinks — typically a file
// sink plus the telemetry hub streaming /spans subscriptions. Writes go
// to every sink even after one fails; the first error is returned (and
// latched by the owning tracer as usual).
type TeeSink struct {
	sinks []Sink
}

// Tee combines sinks into one. With a single sink it is returned as-is.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return &TeeSink{sinks: sinks}
}

// WriteTrace implements Sink.
func (t *TeeSink) WriteTrace(p []byte) error {
	var first error
	for _, s := range t.sinks {
		if err := s.WriteTrace(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close implements Sink, closing every sink and returning the first error.
func (t *TeeSink) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
