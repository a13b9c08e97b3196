// Package epoch is the period transition of the paper's reputation
// manager (§IV): fold one period's ratings into the N_(i,j) counts,
// rescore every node, run the pairwise detector over the high-reputed
// ones, and flag what it finds. The batch simulator applies one epoch per
// simulation cycle and the resident service one per accepted batch; both
// drive this single type, so a served run at epoch E is the batch run at
// cycle E by construction.
//
// A State is single-writer: one goroutine calls Apply and reads the
// accessors. Package epoch is part of the lint-enforced deterministic
// tree — every output is a pure function of the rating stream.
package epoch

import (
	"cmp"
	"slices"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// Config parameterizes a State. Callers validate it: Nodes > 0, a
// non-nil Engine, and non-negative IngestShards and WindowCycles.
type Config struct {
	// Nodes is the fixed population size.
	Nodes int
	// Engine scores the period ledger every epoch.
	Engine reputation.Engine
	// Detector, if non-nil, is the pairwise collusion detector run every
	// epoch. An IncrementalDetector re-screens only the epoch's dirty rows.
	Detector core.Detector
	// IngestShards >= 1 folds each batch through an ingest.Ingester with
	// that many writer goroutines; 0 records the batch directly.
	IngestShards int
	// WindowCycles > 0 scores and detects over a sliding window of the
	// last WindowCycles epochs, held as an ingest.WindowLedger, instead
	// of the cumulative history.
	WindowCycles int
	// Obs, if non-nil, receives the intake and window histograms and the
	// post-run ratings.pair_frequency observation.
	Obs *obs.Registry
	// Tracer, if enabled, is stamped with the epoch being applied and
	// receives the ingester's audit events.
	Tracer *obs.Tracer
	// Spans, if enabled, receives the ingest, window.roll and engine spans.
	Spans *obs.SpanTracer
	// CycleTimer, if non-nil, brackets every epoch's detection phase.
	CycleTimer obs.TimerFunc
}

// State owns one detection plane: the period ledger, the optional
// ingester, the engine scores and the flag book (flags, first-flagged
// epochs and first-evidence-wins pairs).
type State struct {
	cfg      Config
	ledger   *reputation.Ledger   // cumulative history; nil when windowed
	win      *ingest.WindowLedger // non-nil when WindowCycles > 0
	ingester *ingest.Ingester

	epoch   int64
	ratings int64
	scores  []float64
	flagged []bool
	first   []int64
	pairs   []core.Evidence // sorted by (I, J)
}

// New returns the epoch-0 state: an empty ledger, zero scores and
// nothing flagged.
func New(cfg Config) *State {
	e := &State{
		cfg:     cfg,
		scores:  make([]float64, cfg.Nodes),
		flagged: make([]bool, cfg.Nodes),
		first:   make([]int64, cfg.Nodes),
	}
	if cfg.WindowCycles > 0 {
		e.win = ingest.NewWindowLedger(cfg.Nodes, cfg.WindowCycles)
		e.win.Obs = cfg.Obs
		e.win.Spans = cfg.Spans
	} else {
		e.ledger = reputation.NewLedger(cfg.Nodes)
	}
	if cfg.IngestShards >= 1 {
		e.ingester = &ingest.Ingester{
			Shards: cfg.IngestShards,
			Obs:    cfg.Obs,
			Tracer: cfg.Tracer,
			Spans:  cfg.Spans,
		}
	}
	return e
}

// Apply runs one epoch over batch: intake, window roll, score, detect
// and flag. The batch must already be valid (see ingest.Rating); it is
// not retained. On an intake error the epoch does not advance.
func (e *State) Apply(batch []ingest.Rating) error {
	next := int(e.epoch) + 1
	e.cfg.Tracer.SetCycle(next)
	e.cfg.Spans.SetCycle(next)
	if err := e.intake(batch); err != nil {
		return err
	}
	var dirty []int
	if e.win != nil {
		dirty = e.win.Roll()
	}
	e.epoch++
	e.ratings += int64(len(batch))
	e.score()
	e.detect(dirty)
	return nil
}

// intake folds the batch into the open period: the window's open delta,
// or the cumulative ledger.
func (e *State) intake(batch []ingest.Rating) error {
	dst := e.ledger
	if e.win != nil {
		dst = e.win.Current()
	}
	if e.ingester != nil {
		if len(batch) == 0 {
			return nil
		}
		return e.ingester.Ingest(batch, dst)
	}
	for _, r := range batch {
		dst.Record(int(r.Rater), int(r.Target), int(r.Polarity))
	}
	return nil
}

// score rescores the period ledger inside the engine's span and keeps
// flagged nodes at zero.
func (e *State) score() {
	sp := e.cfg.Spans
	name := e.cfg.Engine.Name()
	if sp.Enabled() {
		sp.Begin(name)
	}
	e.scores = e.cfg.Engine.Scores(e.Ledger())
	for i, f := range e.flagged {
		if f {
			e.scores[i] = 0
		}
	}
	if sp.Enabled() {
		sp.End(name, e.engineSpanAttrs()...)
	}
}

// engineSpanAttrs returns the engine span's payload. For EigenTrust it
// exposes the epoch's convergence and the sparsity the multiply
// exploited; all three depend only on the ledger and never on worker or
// shard counts, so the span timeline stays byte-identical.
func (e *State) engineSpanAttrs() []obs.Attr {
	et, ok := e.cfg.Engine.(*reputation.EigenTrust)
	if !ok {
		return nil
	}
	return []obs.Attr{
		obs.Int("iterations", et.Iterations()),
		obs.Int("nnz", et.NNZ()),
		obs.Int("dangling_rows", et.DanglingRows()),
	}
}

// detect runs the pairwise detector inside the cycle timer and flags
// both nodes of every pair it reports. An IncrementalDetector gets the
// window Roll's dirty set, or the cumulative ledger's own; its contract
// makes pairs, meter charges and audit events identical to Detect's.
func (e *State) detect(winDirty []int) {
	if e.cfg.CycleTimer != nil {
		defer e.cfg.CycleTimer()()
	}
	if e.cfg.Detector == nil {
		return
	}
	period := e.Ledger()
	var res core.Result
	inc, ok := e.cfg.Detector.(core.IncrementalDetector)
	switch {
	case !ok:
		res = e.cfg.Detector.Detect(period)
	case e.win != nil:
		res = inc.DetectIncremental(period, winDirty)
	default:
		res = inc.DetectIncremental(period, period.DirtyTargets())
		period.ClearDirty()
	}
	for _, ev := range res.Pairs {
		at, found := slices.BinarySearchFunc(e.pairs, ev, comparePairs)
		if !found {
			e.pairs = slices.Insert(e.pairs, at, ev)
		}
		e.Flag(ev.I)
		e.Flag(ev.J)
	}
}

func comparePairs(a, b core.Evidence) int {
	if c := cmp.Compare(a.I, b.I); c != 0 {
		return c
	}
	return cmp.Compare(a.J, b.J)
}

// Flag marks node as detected, recording the current epoch if it is the
// first time, and zeroes its score. The simulator's group and Sybil
// detectors flag through it after Apply.
func (e *State) Flag(node int) {
	if !e.flagged[node] {
		e.flagged[node] = true
		e.first[node] = e.epoch
	}
	e.scores[node] = 0
}

// ObservePairFrequencies records every nonzero rating-pair count of the
// period ledger into the registry's ratings.pair_frequency histogram —
// the distribution behind the T_N threshold (colluding pairs sit far in
// the right tail, organic pairs near 1). Runs observe it once, after the
// last epoch; windowed runs therefore observe the final window.
func (e *State) ObservePairFrequencies() {
	h := e.cfg.Obs.Histogram("ratings.pair_frequency")
	if h == nil {
		return
	}
	l := e.Ledger()
	for i := 0; i < l.Size(); i++ {
		pc := l.PairCountsOf(i)
		for k := range pc.Raters {
			h.Observe(int64(pc.Total[k]))
		}
	}
}

// Ledger returns the period ledger scoring and detection read: the
// merged sliding window when windowed, the cumulative history otherwise.
// It is live; callers must not mutate it.
func (e *State) Ledger() *reputation.Ledger {
	if e.win != nil {
		return e.win.Window()
	}
	return e.ledger
}

// Epoch returns how many epochs have been applied.
func (e *State) Epoch() int64 { return e.epoch }

// Ratings returns how many ratings the applied epochs carried.
func (e *State) Ratings() int64 { return e.ratings }

// Scores returns the current scores, flagged nodes zeroed. Live view.
func (e *State) Scores() []float64 { return e.scores }

// Flagged returns the per-node flags. Live view.
func (e *State) Flagged() []bool { return e.flagged }

// FirstFlagged returns the 1-based epoch in which each node was first
// flagged, 0 for nodes never flagged. Live view.
func (e *State) FirstFlagged() []int64 { return e.first }

// Pairs returns every distinct evidence pair detected so far, sorted by
// (I, J), each with the statistics of its first detection. Live view.
func (e *State) Pairs() []core.Evidence { return e.pairs }

// DeltaRows returns how many target rows the last sealed window period
// touched, or 0 for a cumulative state.
func (e *State) DeltaRows() int {
	if e.win == nil {
		return 0
	}
	return e.win.DeltaRows()
}
