package obs

import "math"

// CounterSample is one named counter value (or, in a diff, its delta).
type CounterSample struct {
	Name  string
	Value int64
}

// GaugeSample is one named gauge value.
type GaugeSample struct {
	Name  string
	Value float64
}

// HistogramSample is one named histogram: total observation count, value
// sum, and the non-empty buckets ascending by upper bound. In a diff the
// three carry per-interval deltas instead of totals.
type HistogramSample struct {
	Name    string
	Count   int64
	Sum     int64
	Buckets []BucketCount
}

// RegistrySnapshot is a point-in-time copy of every metric the registry
// exports — cost-meter counters merged with registry counters, gauges,
// and histograms — each section sorted by name, so two snapshots of equal
// state are deeply equal and Diff can merge-walk them. Snapshots are
// values: taking one never blocks recorders beyond the registry's brief
// name-map lock, which is what lets a telemetry server snapshot a live
// run concurrently with its epochs (pinned under -race).
type RegistrySnapshot struct {
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistogramSample
}

// Snapshot captures the registry's current state. Nil-safe: a nil
// registry yields an empty snapshot. Individual readings are atomic;
// across metrics the snapshot is not a transaction, so a concurrent
// recorder may land between two reads — fine for telemetry, where every
// counter is monotone and the next interval absorbs the skew.
func (r *Registry) Snapshot() *RegistrySnapshot {
	snap := &RegistrySnapshot{}
	if r == nil {
		return snap
	}
	own, gauges, hists := r.snapshot()
	counters := r.counterValues(own)
	for _, name := range sortedKeys(counters) {
		snap.Counters = append(snap.Counters, CounterSample{Name: name, Value: counters[name]})
	}
	for _, name := range sortedKeys(gauges) {
		snap.Gauges = append(snap.Gauges, GaugeSample{Name: name, Value: gauges[name].Value()})
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		snap.Histograms = append(snap.Histograms, HistogramSample{
			Name: name, Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	return snap
}

// Diff returns what changed since prev: counter deltas, new gauge values,
// and histogram count/sum/bucket deltas — only for metrics that actually
// moved, each section still sorted by name. A nil prev means "first
// interval": everything non-zero appears as its full value. Metrics are
// never unregistered, so names present in prev but missing from s cannot
// occur on a live registry and are ignored.
func (s *RegistrySnapshot) Diff(prev *RegistrySnapshot) *RegistrySnapshot {
	if prev == nil {
		prev = &RegistrySnapshot{}
	}
	d := &RegistrySnapshot{}
	pi := 0
	for _, c := range s.Counters {
		var before int64
		for pi < len(prev.Counters) && prev.Counters[pi].Name < c.Name {
			pi++
		}
		if pi < len(prev.Counters) && prev.Counters[pi].Name == c.Name {
			before = prev.Counters[pi].Value
		}
		if delta := c.Value - before; delta != 0 {
			d.Counters = append(d.Counters, CounterSample{Name: c.Name, Value: delta})
		}
	}
	pi = 0
	for _, g := range s.Gauges {
		before, had := 0.0, false
		for pi < len(prev.Gauges) && prev.Gauges[pi].Name < g.Name {
			pi++
		}
		if pi < len(prev.Gauges) && prev.Gauges[pi].Name == g.Name {
			before, had = prev.Gauges[pi].Value, true
		}
		// Bit-level comparison: gauges are set, not accumulated, so "changed"
		// means the stored bits changed (this also keeps NaN updates visible).
		if !had || math.Float64bits(before) != math.Float64bits(g.Value) {
			d.Gauges = append(d.Gauges, g)
		}
	}
	pi = 0
	for _, h := range s.Histograms {
		var before HistogramSample
		for pi < len(prev.Histograms) && prev.Histograms[pi].Name < h.Name {
			pi++
		}
		if pi < len(prev.Histograms) && prev.Histograms[pi].Name == h.Name {
			before = prev.Histograms[pi]
		}
		if h.Count == before.Count && h.Sum == before.Sum {
			continue
		}
		d.Histograms = append(d.Histograms, HistogramSample{
			Name:    h.Name,
			Count:   h.Count - before.Count,
			Sum:     h.Sum - before.Sum,
			Buckets: diffBuckets(h.Buckets, before.Buckets),
		})
	}
	return d
}

// diffBuckets subtracts two non-empty-bucket lists (both ascending by
// Upper), keeping buckets whose count changed.
func diffBuckets(cur, prev []BucketCount) []BucketCount {
	var out []BucketCount
	pi := 0
	for _, b := range cur {
		var before int64
		for pi < len(prev) && prev[pi].Upper < b.Upper {
			pi++
		}
		if pi < len(prev) && prev[pi].Upper == b.Upper {
			before = prev[pi].Count
		}
		if delta := b.Count - before; delta != 0 {
			out = append(out, BucketCount{Upper: b.Upper, Count: delta})
		}
	}
	return out
}
