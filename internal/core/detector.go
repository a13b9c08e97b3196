package core

import (
	"slices"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// Evidence describes one detected colluding pair with the statistics that
// triggered the detection. I < J always.
type Evidence struct {
	I, J int
	// NIJ is N_(I,J): ratings I received from J; NJI the reverse.
	NIJ, NJI int
	// AIJ is the positive share of J's ratings for I; AJI the reverse.
	AIJ, AJI float64
}

// Result is a detection outcome over one ledger period.
type Result struct {
	// Pairs lists detected colluding pairs sorted by (I, J).
	Pairs []Evidence
	// Flagged[i] reports whether node i appears in any detected pair.
	Flagged []bool

	// pairSet indexes Pairs by normalized {I, J} so membership tests and
	// dedup are O(1); the association sweep probes it inside its inner
	// loop, which kept the old slice re-scan quadratic in the pair count.
	// Lazily built, so zero-value and literal-constructed Results work.
	pairSet map[[2]int]struct{}
}

// FlaggedNodes returns the indices of all flagged nodes, ascending.
func (r Result) FlaggedNodes() []int {
	var out []int
	for i, f := range r.Flagged {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// HasPair reports whether {a, b} was detected (in either order).
func (r Result) HasPair(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	if r.pairSet != nil {
		_, ok := r.pairSet[[2]int{a, b}]
		return ok
	}
	for _, e := range r.Pairs {
		if e.I == a && e.J == b {
			return true
		}
	}
	return false
}

// insertPair appends e (already normalized to I < J) unless the pair is
// already present, updating the pair index and flags. It reports whether
// the pair was new.
func (r *Result) insertPair(e Evidence) bool {
	if r.pairSet == nil {
		r.pairSet = make(map[[2]int]struct{}, len(r.Pairs)+1) //colsimlint:ignore hotalloc lazy once per Result; incremental runs inherit the index from st.buf and clear it in place
		for _, p := range r.Pairs {
			r.pairSet[[2]int{p.I, p.J}] = struct{}{}
		}
	}
	key := [2]int{e.I, e.J}
	if _, ok := r.pairSet[key]; ok {
		return false
	}
	r.pairSet[key] = struct{}{}
	r.Pairs = append(r.Pairs, e) //colsimlint:ignore hotalloc pair list grows to the high-water detection count; the incremental state keeps its Result, so later passes reuse the storage
	r.Flagged[e.I] = true
	r.Flagged[e.J] = true
	return true
}

// Detector is a collusion detection method operating on a period ledger.
type Detector interface {
	// Detect derives high-reputed candidates from the ledger's summation
	// scores (R >= TR) and searches them for colluding pairs.
	Detect(l *reputation.Ledger) Result
	// DetectAmong searches only the given candidate nodes, for hosts that
	// determine trustworthiness with their own engine (e.g. EigenTrust
	// with a normalized threshold).
	DetectAmong(l *reputation.Ledger, candidates []int) Result
	// Name identifies the method in experiment output.
	Name() string
}

// IncrementalDetector is a Detector that can additionally reuse per-pair
// screening work across consecutive detection passes over the same
// evolving ledger. Both pairwise detectors implement it.
type IncrementalDetector interface {
	Detector
	// DetectIncremental behaves exactly like Detect — identical pairs,
	// identical meter charges, identical audit events, traced or not — but
	// keeps its candidate and frequent-row screens across calls,
	// rescreening only the dirty rows, and memoizes each examined pair's
	// screen outcome, replaying it while neither node's received-rating
	// row has changed. Memo validity is keyed on the
	// ledger's per-target row generations (Ledger.RowGen), so the ledger
	// may mutate in place between calls — a windowed merge, a Subtract of
	// an expiring period — without resetting the detector's state. dirty
	// must list every target whose row mutated since the previous
	// DetectIncremental call on this detector (Ledger.DirtyTargets, or
	// ingest.WindowLedger.Roll's return, provides it); it drives the
	// maintenance of the high-reputation candidate set, so a superset is
	// safe, a subset is not. The detector's thresholds must not change
	// between calls. The returned Result shares the detector's internal
	// buffers and is valid only until the next DetectIncremental call.
	DetectIncremental(l *reputation.Ledger, dirty []int) Result
}

// pairCharges is the metered cost one pair examination accrues beyond the
// pass's bulk row accounting. Captured explicitly so the memo can replay
// the exact charges without re-screening.
type pairCharges struct {
	scan  int64 // metrics.CostMatrixScan (Basic's outside re-scans + element reads)
	bound int64 // metrics.CostBoundCheck (Optimized's Formula (2) evaluations)
}

// pairEntry memoizes one examined pair's screen: valid while both rows'
// ledger generations (Ledger.RowGen) still match the values captured at
// screen time, since every statistic the screen reads (the pair counts,
// receive totals and summation scores of i and j) is a function of the
// two rows alone. The ledger advances a row's generation on every
// mutation, so validity survives in-place Merge/Subtract cycles.
type pairEntry struct {
	genI, genJ uint64
	charges    pairCharges
	flagged    bool
}

// runBuffers is a pass's scratch. res is the pass's Result, kept here so
// an incremental detector's storage persists across passes. Between passes
// res.Flagged, inQueue and pairCount are all-false/zero except where the
// last pass's pairs and sweep queue left marks, and each pass resets
// exactly those, so no pass pays an O(n) clear.
type runBuffers struct {
	res       Result
	queue     []int
	inQueue   []bool
	pairCount []int
}

// newRunBuffers returns empty scratch for a population of n.
func newRunBuffers(n int) runBuffers {
	return runBuffers{
		res:       Result{Flagged: make([]bool, n)},
		inQueue:   make([]bool, n),
		pairCount: make([]int, n),
	}
}

// detectState is what a detection pass runs on: the candidate and
// frequent-row screens, the pair screen memo (validated against the
// ledger's row generations), the telemetry counters, and the scratch
// buffers. DetectIncremental keeps one across calls (ensureIncremental);
// Detect and DetectAmong run on a fresh one with no memo (pureState).
type detectState struct {
	ledger *reputation.Ledger
	n      int
	buf    runBuffers

	// memo holds the screens of the pairs the last pass examined; the
	// running pass writes every pair it examines, replayed or fresh, into
	// next, and the two swap at its end. A pair can enter or leave the
	// examined set only when one of its two rows changes, which already
	// invalidates its entry, so dropping the pairs a pass did not examine
	// loses no hit and bounds the memo by the live frequent-pair count.
	// Both are nil in a pure pass's state, which then screens every pair
	// fresh.
	memo, next map[[2]int32]pairEntry

	// cand[i] memoizes the T_R candidate screen, SummationScore(i) >= TR,
	// and m counts the candidates. freq[i] reports whether row i holds a
	// rater with N_(i,j) >= T_N, and freqRows lists those rows ascending.
	// All are functions of row i alone, so after a first full pass
	// (seeded) only dirty rows are rescreened. adds is the scratch for
	// rows turning frequent.
	cand, freq []bool
	m          int
	freqRows   []int32
	adds       []int32
	seeded     bool

	// hits/misses are the detect.incremental_hits / _misses registry
	// counters (nil without a registry, and in a pure pass's state): one
	// hit per memoized pair screen replayed, one miss per pair screened
	// fresh. Resolved once per attach, cached here to keep the per-pair
	// path map-free.
	hits, misses *obs.Counter
}

// ensureIncremental returns the detector's state, resetting it whenever
// the ledger identity or population changed (a new run, a cloned ledger)
// so stale screens can never leak across ledgers. In-place mutation of
// the same ledger does NOT reset the state: the pair memo revalidates
// against the ledger's row generations instead.
//
//colsim:coldpath allocates a fresh state only when the ledger identity or population changes; steady-state calls return the cached pointer
func ensureIncremental(slot **detectState, l *reputation.Ledger, reg *obs.Registry) *detectState {
	st := *slot
	if st == nil || st.ledger != l || st.n != l.Size() {
		n := l.Size()
		st = &detectState{
			ledger: l,
			n:      n,
			buf:    newRunBuffers(n),
			memo:   make(map[[2]int32]pairEntry),
			next:   make(map[[2]int32]pairEntry),
			cand:   make([]bool, n),
			freq:   make([]bool, n),
			hits:   reg.Counter("detect.incremental_hits"),
			misses: reg.Counter("detect.incremental_misses"),
		}
		*slot = st
	}
	return st
}

// pureState returns a fresh state for one pure pass over the candidates
// cand marks, already seeded: their count and the ascending list of their
// rows that hold a frequent rater. It has no memo and no counters, so the
// pass screens every frequent pair fresh and records no memo telemetry,
// and the Result it returns is the caller's.
func pureState(l *reputation.Ledger, tn int, cand []bool) *detectState {
	st := &detectState{n: len(cand), buf: newRunBuffers(len(cand)), cand: cand, seeded: true}
	for i, c := range cand {
		if !c {
			continue
		}
		st.m++
		if frequentRow(l.PairCountsOf(i).Total, tn) {
			st.freqRows = append(st.freqRows, int32(i))
		}
	}
	return st
}

// refresh rescreens the candidate and frequent-row state — every row on
// the first call, the dirty rows afterwards — and rebuilds the ascending
// frequent-row list when a row entered or left it.
func (st *detectState) refresh(l *reputation.Ledger, th Thresholds, dirty []int) {
	changed := false
	if !st.seeded {
		for i := 0; i < st.n; i++ {
			changed = st.rescreen(l, th, i) || changed
		}
		st.seeded = true
	} else {
		for _, d := range dirty {
			if d >= 0 && d < st.n {
				changed = st.rescreen(l, th, d) || changed
			}
		}
	}
	if !changed {
		return
	}
	kept := st.freqRows[:0]
	for _, r := range st.freqRows {
		if st.freq[r] {
			kept = append(kept, r)
		}
	}
	kept = append(kept, st.adds...)
	//colsimlint:ignore hotalloc slices.Sort is generic over the element type, so nothing is boxed, and it sorts in place
	slices.Sort(kept)
	st.freqRows, st.adds = kept, st.adds[:0]
}

// rescreen re-runs row i's candidate and frequency screens and reports
// whether the row entered or left the frequent list.
func (st *detectState) rescreen(l *reputation.Ledger, th Thresholds, i int) bool {
	if c := float64(l.SummationScore(i)) >= th.TR; c != st.cand[i] {
		st.cand[i] = c
		if c {
			st.m++
		} else {
			st.m--
		}
	}
	f := frequentRow(l.PairCountsOf(i).Total, th.TN)
	if f == st.freq[i] {
		return false
	}
	st.freq[i] = f
	if f {
		st.adds = append(st.adds, int32(i)) //colsimlint:ignore hotalloc grows to the high-water count of rows turning frequent in one pass; reset to zero length after every rebuild
	}
	return true
}

// frequentRow reports whether a row's pair totals hold one of at least tn.
func frequentRow(totals []int32, tn int) bool {
	for _, t := range totals {
		if int(t) >= tn {
			return true
		}
	}
	return false
}

// beginPass readies the pass's Result in the state's scratch, unflagging
// the nodes of the previous pass's pairs.
func (st *detectState) beginPass() *Result {
	res := &st.buf.res
	for _, e := range res.Pairs {
		res.Flagged[e.I] = false
		res.Flagged[e.J] = false
	}
	clear(res.pairSet)
	res.Pairs = res.Pairs[:0]
	return res
}

// endPass sorts the pass's pairs and swaps in the memo of the pairs this
// pass examined.
func (st *detectState) endPass(res *Result) Result {
	res.sortPairs()
	st.memo, st.next = st.next, st.memo
	clear(st.next)
	return *res
}

// screenFrequent is the only loop that screens pairs, in every pass. It
// visits the high rows of the frequent list and, on each row i, the high
// raters x > i with N_(i,x) >= T_N: the only high pairs whose screen can
// get past the frequency gate, in ascending order. A pair whose two rows
// are unchanged since its memoized screen replays it; any other is
// screened fresh. It records each flagged pair in res and returns the
// summed charges and the number of pairs examined; the caller charges the
// meter.
//
//colsim:hotpath
func (st *detectState) screenFrequent(l *reputation.Ledger, tn int, res *Result, r pairRule) (sum pairCharges, pairs int64) {
	for _, i32 := range st.freqRows {
		i := int(i32)
		if !st.cand[i] {
			continue
		}
		genI := l.RowGen(i)
		pc := l.PairCountsOf(i)
		for k, x32 := range pc.Raters {
			x := int(x32)
			nij := int(pc.Total[k])
			if x <= i || nij < tn || !st.cand[x] {
				continue
			}
			pairs++
			key := [2]int32{i32, x32}
			e, ok := st.memo[key]
			if ok && e.genI == genI && e.genJ == l.RowGen(x) {
				st.hits.Add(1)
			} else {
				st.misses.Add(1)
				gate, ch := r.screenPair(l, i, x, nij, int(pc.Pos[k]))
				e = pairEntry{genI: genI, genJ: l.RowGen(x), charges: ch, flagged: gate == obs.GateFlagged}
			}
			if e.flagged {
				res.addPair(l, i, x)
			}
			if st.next != nil {
				st.next[key] = e
			}
			sum.scan += e.charges.scan
			sum.bound += e.charges.bound
		}
	}
	return sum, pairs
}

// denseVisits is the number of matrix elements the dense row scans of m
// candidates visit: row number idx (0-based, ascending) skips the idx
// high pairs already checked from earlier rows, so the rows charge
// (n-1) + (n-2) + ... + (n-m) = m(n-1) - m(m-1)/2.
func denseVisits(n, m int64) int64 { return m*(n-1) - m*(m-1)/2 }

// pairRule is what sets the two detection methods apart: the per-pair
// threshold cascade, the counters a pass charges for it, and the
// pair_audit record. Basic and Optimized implement it; the pass around it
// is detector's.
type pairRule interface {
	Name() string
	// screenPair runs the cascade on the high pair (i, j), with N_(i,j)
	// and N+_(i,j) read off i's adjacency, and returns the gate it stops
	// at and the charges it accrues. It records no pair and charges
	// nothing, so a pass can replay it from the memo and the audit loop
	// can re-derive any pair's gate.
	screenPair(l *reputation.Ledger, i, j, nij, posij int) (string, pairCharges)
	// chargePass charges the method's own counters for a pass over m
	// candidates of a population of n that examined `examined` pairs,
	// whose screens accrued sum.
	chargePass(n, m, examined int64, sum pairCharges)
	// auditPair assembles the pair_audit record of (i, j) stopped at gate.
	auditPair(l *reputation.Ledger, i, j int, gate string) obs.PairAudit
}

// detector is the one implementation behind Basic and Optimized, which
// are both declared as this type and differ only in their pairRule.
//
// The paper's methods scan every element of each high-reputed node's
// matrix row. Three facts let a pass skip the dense walk while charging
// the meter the paper's exact element-visit counts (so Figure 13 is
// unchanged and the dense-reference property test stays exact):
//
//   - Non-high elements are screened out with no further work, so their
//     visits can be charged arithmetically (denseVisits).
//   - Only unordered high pairs are examined, and each exactly once, so
//     iterating high partners j > i in ascending order replaces both the
//     column walk and the n×n checked bitset.
//   - A high pair with N_(i,j) < T_N stops at the frequency gate, having
//     cost the same fixed amount (Basic's unconditional O(n) outside
//     re-scan, nothing for Optimized), so only the frequent high pairs
//     need real work (screenFrequent) and the rest are charged in bulk.
type detector struct {
	// Thresholds are the detection parameters T_R, T_N, T_a and T_b.
	Thresholds Thresholds
	// Meter, if non-nil, accumulates metrics.CostPairCheck and the
	// method's own counter: Basic's metrics.CostMatrixScan, Optimized's
	// metrics.CostBoundCheck.
	Meter *metrics.CostMeter
	// Trace, if enabled, receives a pair_audit event per high pair
	// recording which threshold gate it stopped at, emitted once the pass
	// has run exactly as it runs untraced. Detect and DetectIncremental
	// also emit a candidate_audit event per node. Disabled tracing adds no
	// work and no allocations to the hot path.
	Trace *obs.Tracer
	// Obs, if non-nil, receives the detect.incremental_hits/_misses
	// counter pair: how many memoized pair screens DetectIncremental
	// replayed versus re-ran. Telemetry only — never part of the metered
	// operation costs the equivalence tests compare.
	Obs *obs.Registry
	// Spans, if enabled, brackets every Detect and DetectIncremental pass
	// in a "detect" span carrying the detected-pair count and, for
	// DetectIncremental, the dirty-row count and memo hit/miss deltas — all
	// deterministic, worker-count-invariant quantities. Disabled spans add no work and no
	// allocations (pinned by TestTelemetryOffAddsNoAllocs).
	Spans *obs.SpanTracer

	inc *detectState
}

// detect is Detect: a pure pass over the nodes passing the T_R screen.
func (d *detector) detect(r pairRule, l *reputation.Ledger) Result {
	auditCandidates(d.Trace, r.Name(), l, d.Thresholds.TR)
	cand := make([]bool, l.Size())
	for i := range cand {
		cand[i] = float64(l.SummationScore(i)) >= d.Thresholds.TR
	}
	return d.run(r, l, pureState(l, d.Thresholds.TN, cand), nil)
}

// detectAmong is DetectAmong: a pure pass over the given candidates,
// ignoring duplicate and out-of-range entries.
func (d *detector) detectAmong(r pairRule, l *reputation.Ledger, candidates []int) Result {
	cand := make([]bool, l.Size())
	for _, c := range candidates {
		if c >= 0 && c < len(cand) {
			cand[c] = true
		}
	}
	return d.pass(r, l, pureState(l, d.Thresholds.TN, cand), nil)
}

// detectIncremental is DetectIncremental: a pass over the state the
// detector keeps across calls.
//
//colsim:hotpath
func (d *detector) detectIncremental(r pairRule, l *reputation.Ledger, dirty []int) Result {
	st := ensureIncremental(&d.inc, l, d.Obs)
	auditCandidates(d.Trace, r.Name(), l, d.Thresholds.TR)
	return d.run(r, l, st, dirty)
}

// run is one pass, bracketed in a "detect" span when spans are on.
//
//colsim:hotpath
func (d *detector) run(r pairRule, l *reputation.Ledger, st *detectState, dirty []int) Result {
	if d.Spans.Enabled() {
		return d.spanned(r, l, st, dirty)
	}
	return d.pass(r, l, st, dirty)
}

// spanned brackets one pass in a "detect" span. A pass over a kept state
// adds the dirty-row count and the memo hit/miss deltas, read off the
// registry counters (zero without a registry).
//
//colsim:coldpath span bracketing runs only when a span tracer is attached
func (d *detector) spanned(r pairRule, l *reputation.Ledger, st *detectState, dirty []int) Result {
	h0, m0 := st.hits.Value(), st.misses.Value()
	d.Spans.Begin("detect")
	res := d.pass(r, l, st, dirty)
	if st.next == nil { // a pure pass: no dirty set, no memo
		d.Spans.End("detect",
			obs.Str("detector", r.Name()),
			obs.Int("pairs", len(res.Pairs)))
		return res
	}
	d.Spans.End("detect",
		obs.Str("detector", r.Name()),
		obs.Int("dirty", len(dirty)),
		obs.Int("pairs", len(res.Pairs)),
		obs.I64("memo_hits", st.hits.Value()-h0),
		obs.I64("memo_misses", st.misses.Value()-m0))
	return res
}

// pass is the detection pass behind every entry point. It rescreens the
// dirty rows of a kept state, screens the frequent high pairs, charges
// the m candidates' dense row scans in closed form (denseVisits, as pair
// checks) beside the method's own counters, audits every high pair when
// tracing, and closes the detected set under partnership.
//
//colsim:hotpath
func (d *detector) pass(r pairRule, l *reputation.Ledger, st *detectState, dirty []int) Result {
	st.refresh(l, d.Thresholds, dirty)
	res := st.beginPass()
	sum, examined := st.screenFrequent(l, d.Thresholds.TN, res, r)
	n, m := int64(l.Size()), int64(st.m)
	if m > 0 {
		d.charge(metrics.CostPairCheck, denseVisits(n, m))
	}
	r.chargePass(n, m, examined, sum)
	if d.Trace.Enabled() {
		d.auditPairs(r, l, st.cand)
	}
	d.associationSweep(l, r.Name(), st)
	return st.endPass(res)
}

// auditPairs emits one pair_audit event per high pair in ascending (i, j)
// order, reading N_(i,j) by merging i's adjacency along the high list and
// re-deriving the gate from the side-effect-free screen: an examined
// pair's gate is the one the pass acted on, and every other high pair
// stops at the frequency gate. It charges nothing and records no pair.
//
//colsim:coldpath runs only with audit tracing on, whose candidate and pair audits already cost O(n + m²) per pass
func (d *detector) auditPairs(r pairRule, l *reputation.Ledger, cand []bool) {
	var high []int
	for i, c := range cand {
		if c {
			high = append(high, i)
		}
	}
	for idx, i := range high {
		pc := l.PairCountsOf(i)
		k := 0
		for _, j := range high[idx+1:] {
			for k < len(pc.Raters) && int(pc.Raters[k]) < j {
				k++
			}
			nij, posij := 0, 0
			if k < len(pc.Raters) && int(pc.Raters[k]) == j {
				nij, posij = int(pc.Total[k]), int(pc.Pos[k])
			}
			gate, _ := r.screenPair(l, i, j, nij, posij)
			d.Trace.PairAudit(r.auditPair(l, i, j, gate))
		}
	}
}

func (d *detector) charge(name string, n int64) {
	if d.Meter != nil {
		d.Meter.Add(name, n)
	}
}

// Basic is the unoptimized detection method of Section IV-B. For each
// high-reputed node it walks the node's matrix row; for each frequent,
// highly positive rater it re-scans the row to compute the outside
// positive share, then performs the symmetric examination of the rater's
// own row. Work is charged to the meter per matrix element visited
// (metrics.CostMatrixScan), making the O(mn²) complexity of Proposition
// 4.1 measurable. Its fields are detector's: Thresholds, Meter, Trace,
// Obs and Spans.
type Basic detector

// NewBasic returns a basic detector with the given thresholds.
func NewBasic(t Thresholds) *Basic { return &Basic{Thresholds: t} }

// Name implements Detector.
func (b *Basic) Name() string { return "unoptimized" }

// Detect implements Detector.
func (b *Basic) Detect(l *reputation.Ledger) Result { return (*detector)(b).detect(b, l) }

// DetectAmong implements Detector.
func (b *Basic) DetectAmong(l *reputation.Ledger, candidates []int) Result {
	return (*detector)(b).detectAmong(b, l, candidates)
}

// DetectIncremental implements IncrementalDetector.
//
//colsim:hotpath
func (b *Basic) DetectIncremental(l *reputation.Ledger, dirty []int) Result {
	return (*detector)(b).detectIncremental(b, l, dirty)
}

// screenPair runs the §IV-B threshold cascade on one high pair. It
// performs no meter charges itself: the dense-scan costs it accrues — the
// unconditional outside re-scan, the reverse matrix element, and the
// conditional outside re-scans — are returned for the pass to apply,
// fresh or replayed from the memo. The charge sequence is identical to
// the dense reference implementation.
func (b *Basic) screenPair(l *reputation.Ledger, i, j, nij, posij int) (string, pairCharges) {
	var ch pairCharges
	n := int64(l.Size())
	// C2 on n_i: the outside positive share. The unoptimized method pays
	// an O(n) row re-scan here for every examined rater — the cost
	// Proposition 4.1 counts and Formula (2) later eliminates. The receive
	// totals minus the pair counts give the same integers in O(1)
	// (self-ratings cannot exist, so nothing else needs excluding), but
	// the full dense re-scan is still charged.
	ch.scan += n
	outI := outsideLow(b.Thresholds.Tb, l.TotalFor(i)-nij, l.PositiveFor(i)-posij)
	// C4 + C3 forward screen: j rates i frequently and almost always
	// positively.
	if nij < b.Thresholds.TN {
		return obs.GateTNForward, ch
	}
	if float64(posij)/float64(nij) < b.Thresholds.Ta {
		return obs.GateTAForward, ch
	}
	if b.Thresholds.StrictReverse && !outI {
		return obs.GateTBForward, ch
	}
	// Symmetric screen on n_j's element a_ji.
	nji := l.PairTotal(j, i)
	ch.scan++
	if nji < b.Thresholds.TN {
		return obs.GateTNReverse, ch
	}
	posji := l.PairPositive(j, i)
	if float64(posji)/float64(nji) < b.Thresholds.Ta {
		return obs.GateTAReverse, ch
	}
	// The strict (literal Section IV) rule demands the outside test of
	// both sides; the default demands it of at least one.
	if b.Thresholds.StrictReverse {
		ch.scan += n
		if outsideLow(b.Thresholds.Tb, l.TotalFor(j)-nji, l.PositiveFor(j)-posji) {
			return obs.GateFlagged, ch
		}
		return obs.GateTBReverse, ch
	}
	if outI {
		return obs.GateFlagged, ch
	}
	ch.scan += n
	if outsideLow(b.Thresholds.Tb, l.TotalFor(j)-nji, l.PositiveFor(j)-posji) {
		return obs.GateFlagged, ch
	}
	return obs.GateTBOutside, ch
}

// chargePass charges the element reads of the m candidates' row scans,
// the examined pairs' re-scans (sum.scan), and one O(n) outside re-scan
// for each of the m(m-1)/2 high pairs the pass did not examine, which
// the dense method pays in screenPair's first line before the frequency
// gate stops it.
func (b *Basic) chargePass(n, m, examined int64, sum pairCharges) {
	if m > 0 {
		(*detector)(b).charge(metrics.CostMatrixScan, denseVisits(n, m)+sum.scan+n*(m*(m-1)/2-examined))
	}
}

// auditPair implements pairRule.
func (b *Basic) auditPair(l *reputation.Ledger, i, j int, gate string) obs.PairAudit {
	return pairAuditFor(l, b.Name(), i, j, gate)
}

// outsideLow reports whether b — the positive share of every rating the
// target received except the suspect rater's — falls below Tb. The inputs
// are the exact integers N_(i,-j) and N+_(i,-j); the dense method
// recomputed them with a full O(n) row re-scan, whose cost the caller
// still charges arithmetically.
func outsideLow(tb float64, othersTotal, othersPos int) bool {
	if othersTotal == 0 {
		// All of the target's reputation comes from the single rater —
		// the most extreme form of the pattern.
		return true
	}
	return float64(othersPos)/float64(othersTotal) < tb
}

// Optimized is the detection method of Section IV-C: instead of re-scanning
// a row to compute the outside share b, it checks whether the node's
// summation reputation lies inside the Formula (2) interval, which needs
// only R_i, N_i and N_(i,j). Work is charged per bound evaluation
// (metrics.CostBoundCheck), making the O(mn) complexity of Proposition
// 4.2 measurable, and its pair audits carry the Formula (2) interval each
// side was checked against. Its fields are detector's, as on Basic.
type Optimized detector

// NewOptimized returns an optimized detector with the given thresholds.
func NewOptimized(t Thresholds) *Optimized { return &Optimized{Thresholds: t} }

// Name implements Detector.
func (o *Optimized) Name() string { return "optimized" }

// Detect implements Detector.
func (o *Optimized) Detect(l *reputation.Ledger) Result { return (*detector)(o).detect(o, l) }

// DetectAmong implements Detector.
func (o *Optimized) DetectAmong(l *reputation.Ledger, candidates []int) Result {
	return (*detector)(o).detectAmong(o, l, candidates)
}

// DetectIncremental implements IncrementalDetector.
//
//colsim:hotpath
func (o *Optimized) DetectIncremental(l *reputation.Ledger, dirty []int) Result {
	return (*detector)(o).detectIncremental(o, l, dirty)
}

// screenPair runs the §IV-C cascade on one high pair. It performs no
// meter charges itself; bound evaluations are counted exactly where the
// dense reference charged them — always the first, the second only when
// the rule needs it — and returned for the pass to apply or replay.
func (o *Optimized) screenPair(l *reputation.Ledger, i, j, nij, posij int) (string, pairCharges) {
	var ch pairCharges
	nji := l.PairTotal(j, i)
	if nij < o.Thresholds.TN || nji < o.Thresholds.TN {
		return obs.GateTN, ch
	}
	ri, ni := float64(l.SummationScore(i)), l.TotalFor(i)
	rj, nj := float64(l.SummationScore(j)), l.TotalFor(j)
	if o.Thresholds.StrictReverse {
		// Literal Section IV-C: Formula (2) must hold on both sides.
		// Each evaluation needs only R, N and N_(i,j).
		ch.bound++
		if !o.Thresholds.BoundsHold(ri, ni, nij) {
			return obs.GateBoundForward, ch
		}
		ch.bound++
		if !o.Thresholds.BoundsHold(rj, nj, nji) {
			return obs.GateBoundReverse, ch
		}
		return obs.GateFlagged, ch
	}
	// Default rule: mutual frequent almost-always-positive rating (read
	// off the two matrix elements, no row scan) plus Formula (2) on at
	// least one side.
	if float64(posij)/float64(nij) < o.Thresholds.Ta ||
		float64(l.PairPositive(j, i))/float64(nji) < o.Thresholds.Ta {
		return obs.GateTA, ch
	}
	ch.bound++
	if !o.Thresholds.BoundsHold(ri, ni, nij) {
		ch.bound++
		if !o.Thresholds.BoundsHold(rj, nj, nji) {
			return obs.GateBound, ch
		}
	}
	return obs.GateFlagged, ch
}

// chargePass charges the examined pairs' bound evaluations. The dense
// method registers the counter, even at zero, as soon as one pair gets
// past the forward frequency gate, so the pass does too.
func (o *Optimized) chargePass(_, _, examined int64, sum pairCharges) {
	if examined > 0 {
		(*detector)(o).charge(metrics.CostBoundCheck, sum.bound)
	}
}

// auditPair implements pairRule, adding the Formula (2) intervals both
// sides were (or would have been) checked against.
func (o *Optimized) auditPair(l *reputation.Ledger, i, j int, gate string) obs.PairAudit {
	a := pairAuditFor(l, o.Name(), i, j, gate)
	a.LoI, a.HiI = o.Thresholds.ReputationBounds(a.NI, a.NIJ)
	a.LoJ, a.HiJ = o.Thresholds.ReputationBounds(a.NJ, a.NJI)
	return a
}

// associationSweep closes the detected set under colluding partnership:
// any node in a frequent, mutually almost-always-positive rating
// relationship with an already-detected colluder is flagged with it. This
// pass (part of the default, figure-faithful rule; disabled by
// StrictReverse) is what catches compromised pretrusted nodes in the
// Figure 11 scenario — their outside reputation is honestly earned, so no
// reputation test can implicate them, but reciprocating a colluder's
// rating flood can.
// The sweep conceptually examines every unpaired column of each flagged
// node's row, but a partner must satisfy n_(c,x) >= TN >= 1 (Thresholds.
// Validate rejects smaller TN), so only c's active raters can qualify: the
// loop walks the adjacency with its aligned counts and the remaining
// column visits are charged in bulk. Detected pairs always have both
// directions >= TN, so every already-paired partner is in the adjacency
// list and the bulk charge (n-1 minus c's current pair count) matches the
// dense scan's exactly.
// The sweep always runs in full — flags propagate transitively, so one
// dirty row can extend chains through unchanged ones — but its inputs at
// equal flag sets are identical, which keeps the incremental path's
// charges and audits byte-identical to a full pass. Its work is
// O(flagged): every flagged node belongs to a pair, so the queue starts
// from the pairs' nodes, and the scratch marks it leaves are reset over
// that queue instead of cleared in O(n).
func (d *detector) associationSweep(l *reputation.Ledger, det string, st *detectState) {
	th := d.Thresholds
	if th.StrictReverse {
		return
	}
	n := l.Size()
	res := &st.buf.res
	queue := st.buf.queue[:0]
	inQueue, pairCount := st.buf.inQueue, st.buf.pairCount
	for _, e := range res.Pairs {
		for _, v := range [2]int{e.I, e.J} {
			pairCount[v]++
			if !inQueue[v] {
				inQueue[v] = true
				queue = append(queue, v)
			}
		}
	}
	//colsimlint:ignore hotalloc slices.Sort is generic over the element type, so nothing is boxed, and it sorts in place
	slices.Sort(queue)
	var visits int64
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		visits += int64(n - 1 - pairCount[c])
		pc := l.PairCountsOf(c)
		for k, x32 := range pc.Raters {
			x := int(x32)
			if res.HasPair(c, x) {
				continue
			}
			gate := sweepPartner(l, th, res, c, x, int(pc.Total[k]), int(pc.Pos[k]))
			if gate == obs.GateFlagged {
				pairCount[c]++
				pairCount[x]++
				if !inQueue[x] {
					inQueue[x] = true
					queue = append(queue, x)
				}
			}
			if d.Trace.Enabled() {
				d.Trace.PairAudit(pairAuditFor(l, det, min2(c, x), max2(c, x), gate))
			}
		}
	}
	if len(queue) > 0 {
		d.charge(metrics.CostPairCheck, visits)
	}
	for _, c := range queue {
		inQueue[c] = false
		pairCount[c] = 0
	}
	st.buf.queue = queue
}

// sweepPartner applies the association screen to one candidate partner of
// a flagged colluder (ncx and poscx read off c's adjacency), records a
// detection, and returns the gate label.
func sweepPartner(l *reputation.Ledger, th Thresholds, res *Result, c, x, ncx, poscx int) string {
	nxc := l.PairTotal(x, c)
	if ncx < th.TN || nxc < th.TN {
		return obs.GateTN
	}
	if float64(poscx)/float64(ncx) < th.Ta ||
		float64(l.PairPositive(x, c))/float64(nxc) < th.Ta {
		return obs.GateTA
	}
	res.addPair(l, c, x)
	return obs.GateFlagged
}

// pairAuditFor assembles a decision record for (i, j) from O(1) ledger
// reads — uncharged, so auditing never perturbs the cost accounting the
// Figure 13 equivalence tests pin.
func pairAuditFor(l *reputation.Ledger, det string, i, j int, gate string) obs.PairAudit {
	a := obs.PairAudit{
		Detector: det, I: i, J: j, Gate: gate,
		NIJ: l.PairTotal(i, j), NJI: l.PairTotal(j, i),
		NI: l.TotalFor(i), NJ: l.TotalFor(j),
		RI: float64(l.SummationScore(i)), RJ: float64(l.SummationScore(j)),
		OutPosI: l.OthersPositive(i, j), OutTotI: l.OthersTotal(i, j),
		OutPosJ: l.OthersPositive(j, i), OutTotJ: l.OthersTotal(j, i),
	}
	if a.NIJ > 0 {
		a.AIJ = float64(l.PairPositive(i, j)) / float64(a.NIJ)
	}
	if a.NJI > 0 {
		a.AJI = float64(l.PairPositive(j, i)) / float64(a.NJI)
	}
	return a
}

// auditCandidates emits one candidate_audit event per node recording the
// T_R screen that selects high-reputed detection candidates, so the trace
// also explains pairs that never reached pair examination.
//
//colsim:coldpath returns immediately unless tracing is enabled; audited runs trade allocation freedom for the decision record
func auditCandidates(t *obs.Tracer, det string, l *reputation.Ledger, tr float64) {
	if !t.Enabled() {
		return
	}
	for i := 0; i < l.Size(); i++ {
		r := float64(l.SummationScore(i))
		t.Emit("candidate_audit",
			obs.Str("detector", det),
			obs.Int("node", i),
			obs.Float("r", r),
			obs.Float("t_r", tr),
			obs.Bool("high", r >= tr))
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// summationCandidates returns nodes whose summation reputation reaches tr
// — the T_R screen the group and Sybil detectors search. The pairwise
// detectors keep the same set as the detectState.cand bitmap.
func summationCandidates(l *reputation.Ledger, tr float64) []int {
	var out []int
	for i := 0; i < l.Size(); i++ {
		if float64(l.SummationScore(i)) >= tr {
			out = append(out, i)
		}
	}
	return out
}

func (r *Result) addPair(l *reputation.Ledger, i, j int) {
	r.insertPair(pairEvidence(l, i, l, j))
}

// pairEvidence reads the Evidence of the pair {i, j} off i's row in li and
// j's row in lj, normalized to I < J. The centralized detectors pass one
// ledger twice; a manager ring passes the ledgers of the two managers.
func pairEvidence(li *reputation.Ledger, i int, lj *reputation.Ledger, j int) Evidence {
	if i > j {
		li, i, lj, j = lj, j, li, i
	}
	e := Evidence{I: i, J: j, NIJ: li.PairTotal(i, j), NJI: lj.PairTotal(j, i)}
	if e.NIJ > 0 {
		e.AIJ = float64(li.PairPositive(i, j)) / float64(e.NIJ)
	}
	if e.NJI > 0 {
		e.AJI = float64(lj.PairPositive(j, i)) / float64(e.NJI)
	}
	return e
}

// sortPairs orders Pairs by (I, J). Insertion sort: pair lists are short,
// nearly sorted (rows are scanned ascending), and the in-place pass
// allocates nothing, which keeps steady-state incremental detection
// allocation-free.
func (r *Result) sortPairs() {
	ps := r.Pairs
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && (ps[j].I < ps[j-1].I ||
			(ps[j].I == ps[j-1].I && ps[j].J < ps[j-1].J)); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
