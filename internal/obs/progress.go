package obs

import "sync"

// Progress is the per-cycle streaming reporter behind the -progress CLI
// flags: each Cycle call snapshots the registry, diffs it against the
// previous cycle's snapshot, and emits one canonical JSONL line carrying
// exactly what moved — counter deltas, new gauge values, and histogram
// count/sum deltas — as flat attributes in deterministic (sorted-name)
// order.
//
// The line stream is deterministic whenever the registry content is: a
// seeded single run with no wall-clock collectors attached produces a
// byte-identical progress file on every replay, for every worker count
// (meter charges, memo counters and window histograms are all pinned
// worker-invariant elsewhere). Attaching
// wall-clock histograms (detect.cycle_ns, span.*_ns) or sharing one
// Progress across concurrently-executing runs degrades the file to a
// live operational feed: still canonical per line, no longer replayable.
//
// Cycle is mutex-guarded so concurrent experiment cells may share one
// reporter; a nil Progress (or one built on a nil registry or sink) is a
// valid disabled reporter.
type Progress struct {
	mu   sync.Mutex
	reg  *Registry
	tr   *Tracer
	prev *RegistrySnapshot
}

// NewProgress returns a reporter diffing reg into sink. A nil registry or
// sink yields a disabled reporter.
func NewProgress(reg *Registry, sink Sink) *Progress {
	return &Progress{reg: reg, tr: NewTracer(sink)}
}

// Enabled reports whether Cycle will emit. Nil-safe.
func (p *Progress) Enabled() bool { return p != nil && p.reg != nil && p.tr.Enabled() }

// Cycle emits one progress line for the given simulation cycle: the
// registry delta since the previous Cycle call (or since zero on the
// first). Histogram deltas flatten to two attributes, <name>.count and
// <name>.sum; a cycle in which nothing moved still emits its (empty)
// line, so consumers can count cycles. Sink errors latch; see Err.
func (p *Progress) Cycle(cycle int) {
	if !p.Enabled() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.reg.Snapshot()
	d := cur.Diff(p.prev)
	p.prev = cur
	attrs := make([]Attr, 0, len(d.Counters)+len(d.Gauges)+2*len(d.Histograms))
	for _, c := range d.Counters {
		attrs = append(attrs, I64(c.Name, c.Value))
	}
	for _, g := range d.Gauges {
		attrs = append(attrs, Float(g.Name, g.Value))
	}
	for _, h := range d.Histograms {
		attrs = append(attrs, I64(h.Name+".count", h.Count), I64(h.Name+".sum", h.Sum))
	}
	p.tr.SetCycle(cycle)
	p.tr.Emit("progress", attrs...)
}

// Err returns the first sink error encountered, if any.
func (p *Progress) Err() error {
	if p == nil {
		return nil
	}
	return p.tr.Err()
}

// Close closes the sink and surfaces any latched emit error.
func (p *Progress) Close() error {
	if p == nil {
		return nil
	}
	return p.tr.Close()
}
