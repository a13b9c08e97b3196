package main

import (
	"time"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/service"
	"github.com/p2psim/collusion/internal/simulator"
)

// phases is one replica epoch's wall time per phase, in the order
// service.Store applies a batch, plus the epoch total measured around all
// of them. Whatever the total holds beyond the phases (the registry
// updates, the timer reads) is the residual.
type phases struct {
	intake, roll, score, detect, flag, publish, total time.Duration

	dirty     int // rows the detector was told changed
	deltaRows int // rows the sealed window delta touched (windowed only)
}

func (p phases) sum() time.Duration {
	return p.intake + p.roll + p.score + p.detect + p.flag + p.publish
}

// replica re-runs service.Store's epoch transition with the knobs the
// benchmark leaves at their defaults (direct intake, incremental
// detection): it calls the public functions the store's writer calls, in
// the same order, on engine and detector instances built by the same
// builders, and times each call from outside. It owns its own cost meter
// and registry, so its deterministic counts can be compared with the
// store's.
type replica struct {
	n      int
	ledger *reputation.Ledger
	win    *ingest.WindowLedger
	engine reputation.Engine
	det    core.IncrementalDetector

	epoch   int64
	ratings int64
	scores  []float64
	flagged []bool
	first   []int64
	pairSet map[[2]int]struct{}
	pairs   []core.Evidence

	// snap is the replica's published copy of the epoch's state.
	snap struct {
		ledger  *reputation.Ledger
		scores  []float64
		flagged []bool
		first   []int64
		pairs   []core.Evidence
	}

	meter *metrics.CostMeter
	reg   *obs.Registry

	mBatches, mRatings *obs.Counter
	gEpoch             *obs.Gauge
}

func newReplica(w workload) *replica {
	cfg, meter, reg := w.instrumented()
	r := &replica{
		n:        w.nodes,
		ledger:   reputation.NewLedger(w.nodes),
		engine:   simulator.BuildEngine(cfg),
		det:      simulator.BuildPairDetector(cfg).(core.IncrementalDetector),
		scores:   make([]float64, w.nodes),
		flagged:  make([]bool, w.nodes),
		first:    make([]int64, w.nodes),
		pairSet:  make(map[[2]int]struct{}),
		meter:    meter,
		reg:      reg,
		mBatches: reg.Counter("service.batches_total"),
		mRatings: reg.Counter("service.ratings_total"),
		gEpoch:   reg.Gauge("service.epoch"),
	}
	if w.window > 0 {
		r.win = ingest.NewWindowLedger(w.nodes, w.window)
		r.win.Obs = reg
	}
	r.snap.ledger = reputation.NewLedger(w.nodes)
	return r
}

func (r *replica) period() *reputation.Ledger {
	if r.win != nil {
		return r.win.Window()
	}
	return r.ledger
}

// apply runs one epoch and returns its phase times.
func (r *replica) apply(batch []ingest.Rating) phases {
	var p phases
	start := time.Now()

	for _, x := range batch {
		r.ledger.Record(int(x.Rater), int(x.Target), int(x.Polarity))
		if r.win != nil {
			r.win.Record(int(x.Rater), int(x.Target), int(x.Polarity))
		}
	}
	t := time.Now()
	p.intake = t.Sub(start)

	var winDirty []int
	if r.win != nil {
		winDirty = r.win.Roll()
		p.deltaRows = r.win.DeltaRows()
	}
	r.epoch++
	r.ratings += int64(len(batch))
	t, p.roll = lap(t)

	r.score()
	t, p.score = lap(t)

	period := r.period()
	var res core.Result
	if r.win != nil {
		p.dirty = len(winDirty)
		res = r.det.DetectIncremental(period, winDirty)
	} else {
		dirty := period.DirtyTargets()
		p.dirty = len(dirty)
		res = r.det.DetectIncremental(period, dirty)
		period.ClearDirty()
	}
	t, p.detect = lap(t)

	for _, e := range res.Pairs {
		key := [2]int{e.I, e.J}
		if _, ok := r.pairSet[key]; !ok {
			r.pairSet[key] = struct{}{}
			r.insertPair(e)
		}
		r.flag(e.I)
		r.flag(e.J)
	}
	t, p.flag = lap(t)

	period.CloneInto(r.snap.ledger)
	r.snap.scores = append(r.snap.scores[:0], r.scores...)
	r.snap.flagged = append(r.snap.flagged[:0], r.flagged...)
	r.snap.first = append(r.snap.first[:0], r.first...)
	r.snap.pairs = append(r.snap.pairs[:0], r.pairs...)
	_, p.publish = lap(t)

	r.mBatches.Add(1)
	r.mRatings.Add(int64(len(batch)))
	r.gEpoch.Set(float64(r.epoch))
	p.total = time.Since(start)
	return p
}

// score rescores the period ledger and keeps detected colluders at zero.
func (r *replica) score() {
	r.scores = r.engine.Scores(r.period())
	for i, f := range r.flagged {
		if f {
			r.scores[i] = 0
		}
	}
}

// lap returns the current time and the time elapsed since t.
func lap(t time.Time) (time.Time, time.Duration) {
	now := time.Now()
	return now, now.Sub(t)
}

// insertPair keeps r.pairs sorted by (I, J), as the store does.
func (r *replica) insertPair(e core.Evidence) {
	at := len(r.pairs)
	for at > 0 && (e.I < r.pairs[at-1].I || (e.I == r.pairs[at-1].I && e.J < r.pairs[at-1].J)) {
		at--
	}
	r.pairs = append(r.pairs, core.Evidence{})
	copy(r.pairs[at+1:], r.pairs[at:])
	r.pairs[at] = e
}

func (r *replica) flag(node int) {
	if !r.flagged[node] {
		r.flagged[node] = true
		r.first[node] = r.epoch
	}
	r.scores[node] = 0
}

// document encodes the replica's flagged document, the bytes
// service.AppendFlaggedSnapshot produces for the store's snapshot of the
// same epoch.
func (r *replica) document() []byte {
	return service.AppendFlagged(nil, r.epoch, r.scores, r.flagged, func(i int) int64 { return r.first[i] }, r.pairs)
}

// counts returns the replica's deterministic counts.
func (r *replica) counts() counts {
	return countsOf(r.meter, r.reg, r.period(), r.ratings, r.flagged, len(r.pairs))
}

// publishBytes is the memory the publish phase copies for a period ledger
// of nnz pairs: per pair, the rater index and three count columns (4 int32);
// per node, the rows' receive and send totals (4 int64), row generation
// (uint64), dirty flag (bool), score (float64), flag (bool) and first epoch
// (int64); per evidence pair, one core.Evidence (48 bytes).
func publishBytes(n, nnz, pairs int) int64 {
	return int64(nnz)*16 + int64(n)*(32+8+1+8+1+8) + int64(pairs)*48
}
