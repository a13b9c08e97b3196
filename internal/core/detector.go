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
	// identical meter charges, identical audit events — but examines only
	// the pairs whose rating count reaches T_N, charges the dense visits of
	// all others in closed form, and memoizes each examined pair's screen
	// outcome, replaying it while neither node's received-rating row has
	// changed. Memo validity is keyed on the
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
// caller's bulk row accounting. Captured explicitly so the incremental
// cache can replay the exact charges without re-screening.
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

// runBuffers is the per-detection scratch an incremental detector reuses
// across cycles, so steady-state passes allocate nothing. res is the
// untraced pass's Result, kept here so its storage persists and so the
// pair screens can take its address without moving it to the heap.
// Between passes res.Flagged, inQueue and pairCount are all-false/zero
// except where the last pass's pairs and sweep queue left marks, and each
// pass resets exactly those, so no pass pays an O(n) clear.
type runBuffers struct {
	res       Result
	queue     []int
	inQueue   []bool
	pairCount []int
}

// incrementalState is one detector's memoization across DetectIncremental
// calls: the maintained candidate and frequent-row screens, the pair
// screen memo (validated against the ledger's row generations), the
// telemetry counters, and the reusable scratch buffers.
type incrementalState struct {
	ledger *reputation.Ledger
	n      int
	buf    runBuffers

	// memo holds the screens of the pairs the last untraced pass examined;
	// the running pass writes every pair it examines, replayed or fresh,
	// into next, and the two swap at its end. A pair can enter or leave the
	// examined set only when one of its two rows changes, which already
	// invalidates its entry, so dropping the pairs a pass did not examine
	// loses no hit and bounds the memo by the live frequent-pair count.
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
	// counters (nil without a registry): one hit per memoized pair screen
	// replayed, one miss per pair screened fresh. Resolved once per attach,
	// cached here to keep the per-pair path map-free.
	hits, misses *obs.Counter
}

// ensureIncremental returns the detector's state, resetting it whenever
// the ledger identity or population changed (a new run, a cloned ledger)
// so stale screens can never leak across ledgers. In-place mutation of
// the same ledger does NOT reset the state: the pair memo revalidates
// against the ledger's row generations instead.
//
//colsim:coldpath allocates a fresh state only when the ledger identity or population changes; steady-state calls return the cached pointer
func ensureIncremental(slot **incrementalState, l *reputation.Ledger, reg *obs.Registry) *incrementalState {
	st := *slot
	if st == nil || st.ledger != l || st.n != l.Size() {
		n := l.Size()
		st = &incrementalState{
			ledger: l,
			n:      n,
			buf: runBuffers{
				res:       Result{Flagged: make([]bool, n), pairSet: make(map[[2]int]struct{})},
				inQueue:   make([]bool, n),
				pairCount: make([]int, n),
			},
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

// refresh rescreens the candidate and frequent-row state — every row on
// the first call, the dirty rows afterwards — and rebuilds the ascending
// frequent-row list when a row entered or left it.
func (st *incrementalState) refresh(l *reputation.Ledger, th Thresholds, dirty []int) {
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
func (st *incrementalState) rescreen(l *reputation.Ledger, th Thresholds, i int) bool {
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

// beginPass readies the untraced pass's Result in the reusable scratch,
// unflagging the nodes of the previous pass's pairs.
func (st *incrementalState) beginPass() *Result {
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
func (st *incrementalState) endPass(res *Result) Result {
	res.sortPairs()
	st.memo, st.next = st.next, st.memo
	clear(st.next)
	return *res
}

// pairScreener is the detector-specific screen screenFrequent runs on a
// pair (i, j), with N_(i,j) and N+_(i,j) read off i's adjacency: it
// records a detection in res and returns the gate label and the charges
// the screen accrued, charging nothing itself.
type pairScreener interface {
	screenPair(l *reputation.Ledger, i, j, nij, posij int, res *Result) (string, pairCharges)
}

// screenFrequent is the untraced incremental pass's only pair loop. It
// visits the high rows of the frequent list and, on each row i, the high
// raters x > i with N_(i,x) >= T_N: exactly the pairs a full pass screens
// past its frequency gate, in the same ascending order. A pair whose two
// rows are unchanged since its memoized screen replays it; any other is
// screened fresh. It returns the summed charges and the number of pairs
// examined; the caller charges the meter.
//
//colsim:hotpath
func (st *incrementalState) screenFrequent(l *reputation.Ledger, tn int, res *Result, det pairScreener) (sum pairCharges, pairs int64) {
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
				if e.flagged {
					res.addPair(l, i, x)
				}
			} else {
				st.misses.Add(1)
				gate, ch := det.screenPair(l, i, x, nij, int(pc.Pos[k]), res)
				e = pairEntry{genI: genI, genJ: l.RowGen(x), charges: ch, flagged: gate == obs.GateFlagged}
			}
			st.next[key] = e
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

// beginRun normalizes the candidate list into the ascending high list and
// bitmap and readies an empty Result, all in fresh caller-owned storage:
// the pure Detect/DetectAmong contract.
func beginRun(n int, candidates []int) (res Result, highList []int, high []bool) {
	high = make([]bool, n)
	for _, c := range candidates {
		if c >= 0 && c < n {
			high[c] = true
		}
	}
	highList = make([]int, 0, len(candidates))
	for i, h := range high {
		if h {
			highList = append(highList, i)
		}
	}
	return Result{Flagged: make([]bool, n)}, highList, high
}

// Basic is the unoptimized detection method of Section IV-B. For each
// high-reputed node it walks the node's matrix row; for each frequent,
// highly positive rater it re-scans the row to compute the outside
// positive share, then performs the symmetric examination of the rater's
// own row. Work is charged to the meter per matrix element visited,
// making the O(mn²) complexity of Proposition 4.1 measurable.
type Basic struct {
	Thresholds Thresholds
	// Meter, if non-nil, accumulates metrics.CostMatrixScan and
	// metrics.CostPairCheck.
	Meter *metrics.CostMeter
	// Trace, if enabled, receives a pair_audit event per examined high
	// pair recording which threshold gate it stopped at. Disabled tracing
	// adds no work and no allocations to the hot path.
	Trace *obs.Tracer
	// Obs, if non-nil, receives the detect.incremental_hits/_misses
	// counter pair: how many memoized pair screens DetectIncremental
	// replayed versus re-ran. Telemetry only — never part of the metered
	// operation costs the equivalence tests compare.
	Obs *obs.Registry
	// Spans, if enabled, brackets every detection pass in a "detect" span
	// carrying the dirty-row count, detected-pair count and memo hit/miss
	// deltas — all deterministic, worker-count-invariant quantities. Spans ride their own tracer, separate from Trace, so
	// span collection never flips the detector onto the memo-bypassing
	// audit path. Disabled spans add no work and no allocations (pinned
	// by TestTelemetryOffAddsNoAllocs).
	Spans *obs.SpanTracer

	inc *incrementalState
}

// NewBasic returns a basic detector with the given thresholds.
func NewBasic(t Thresholds) *Basic { return &Basic{Thresholds: t} }

// Name implements Detector.
func (b *Basic) Name() string { return "unoptimized" }

// Detect implements Detector.
func (b *Basic) Detect(l *reputation.Ledger) Result {
	auditCandidates(b.Trace, b.Name(), l, b.Thresholds.TR)
	if !b.Spans.Enabled() {
		return b.detectFull(l)
	}
	b.Spans.Begin("detect")
	res := b.detectFull(l)
	b.Spans.End("detect",
		obs.Str("detector", b.Name()),
		obs.Int("pairs", len(res.Pairs)))
	return res
}

// DetectAmong implements Detector.
func (b *Basic) DetectAmong(l *reputation.Ledger, candidates []int) Result {
	return b.detectAmong(l, candidates)
}

// DetectIncremental implements IncrementalDetector.
//
//colsim:hotpath
func (b *Basic) DetectIncremental(l *reputation.Ledger, dirty []int) Result {
	st := ensureIncremental(&b.inc, l, b.Obs)
	auditCandidates(b.Trace, b.Name(), l, b.Thresholds.TR)
	if b.Spans.Enabled() {
		return b.detectSpanned(l, dirty, st)
	}
	return b.detectIncremental(l, dirty, st)
}

// detectSpanned brackets one incremental pass in a "detect" span. The
// memo hit/miss deltas come from the registry counters (zero without a
// registry, and zero when audit tracing bypasses the memo).
//
//colsim:coldpath span bracketing runs only when a span tracer is attached
func (b *Basic) detectSpanned(l *reputation.Ledger, dirty []int, st *incrementalState) Result {
	h0, m0 := st.hits.Value(), st.misses.Value()
	b.Spans.Begin("detect")
	res := b.detectIncremental(l, dirty, st)
	b.Spans.End("detect",
		obs.Str("detector", b.Name()),
		obs.Int("dirty", len(dirty)),
		obs.Int("pairs", len(res.Pairs)),
		obs.I64("memo_hits", st.hits.Value()-h0),
		obs.I64("memo_misses", st.misses.Value()-m0))
	return res
}

// detectIncremental is one incremental pass. Untraced, it screens only
// the frequent high pairs (screenFrequent) and charges the dense visit
// counts in closed form: the m candidates' row scans (denseVisits, once
// as pair checks and once as element reads) and one O(n) outside re-scan
// for each of the m(m-1)/2 high pairs it did not examine, which a full
// pass pays in screenPair's first line before the frequency gate stops
// it. Traced, it runs the full audit walk without the memo.
//
//colsim:hotpath
func (b *Basic) detectIncremental(l *reputation.Ledger, dirty []int, st *incrementalState) Result {
	st.refresh(l, b.Thresholds, dirty)
	if b.Trace.Enabled() {
		return b.detectFull(l)
	}
	res := st.beginPass()
	sum, examined := st.screenFrequent(l, b.Thresholds.TN, res, b)
	if st.m > 0 {
		n, m := int64(l.Size()), int64(st.m)
		visits := denseVisits(n, m)
		b.charge(metrics.CostPairCheck, visits)
		b.charge(metrics.CostMatrixScan, visits+sum.scan+n*(m*(m-1)/2-examined))
	}
	associationSweep(l, b.Thresholds, res, b.Meter, metrics.CostPairCheck, b.Trace, b.Name(), st)
	return st.endPass(res)
}

// detectFull is the full pass over the summation candidates: Detect's
// pass, and the traced incremental pass, which leaves the memo untouched.
//
//colsim:coldpath the incremental pass reaches it only with audit tracing on, whose candidate and pair audits already cost O(n) per pass
func (b *Basic) detectFull(l *reputation.Ledger) Result {
	return b.detectAmong(l, summationCandidates(l, b.Thresholds.TR))
}

// detectAmong is the full detection pass behind Detect and DetectAmong.
//
// The paper's method scans every element of each high-reputed node's
// matrix row. Two facts let the implementation skip the dense walk while
// charging the meter the paper's exact element-visit counts (so Figure 13
// is unchanged and the dense-reference property test stays exact):
//
//   - Non-high elements are screened out with no further work, so their
//     visits can be charged arithmetically: at row i, the dense scan
//     touches the n-1 other columns minus the high pairs {j, i} with
//     j < i already marked checked from row j.
//   - Only unordered high pairs are examined, and each exactly once, so
//     iterating high partners j > i in ascending order replaces both the
//     column walk and the n×n checked bitset. High partners with
//     N_(i,j) = 0 stop at the frequency gate after the unconditional
//     outside re-scan, so only partners on i's adjacency need real work;
//     the rest are charged one O(n) re-scan each, in bulk.
//
// When tracing is enabled every high pair is examined and audited in
// ascending order.
func (b *Basic) detectAmong(l *reputation.Ledger, candidates []int) Result {
	n := l.Size()
	res, highList, high := beginRun(n, candidates)
	tracing := b.Trace.Enabled()

	for idx, i := range highList {
		// Dense row-scan accounting: every element a_ij except the idx
		// already-checked high pairs from earlier rows.
		visited := int64(n - 1 - idx)
		b.charge(metrics.CostPairCheck, visited)
		b.charge(metrics.CostMatrixScan, visited)
		pc := l.PairCountsOf(i)

		if tracing {
			// Audit path: every high partner j > i is screened and audited
			// in ascending order, reading N_(i,j) by merging i's adjacency
			// along the high list.
			k := 0
			for _, j := range highList[idx+1:] {
				for k < len(pc.Raters) && int(pc.Raters[k]) < j {
					k++
				}
				nij, posij := 0, 0
				if k < len(pc.Raters) && int(pc.Raters[k]) == j {
					nij, posij = int(pc.Total[k]), int(pc.Pos[k])
				}
				gate, ch := b.screenPair(l, i, j, nij, posij, &res)
				b.charge(metrics.CostMatrixScan, ch.scan)
				b.Trace.PairAudit(pairAuditFor(l, b.Name(), i, j, gate))
			}
			continue
		}

		// Fast path: only high partners on i's adjacency can get past the
		// frequency gate; each zero pair still pays the unconditional O(n)
		// outside re-scan, charged in bulk below.
		highAfter := len(highList) - idx - 1
		examined := 0
		for k, x32 := range pc.Raters {
			x := int(x32)
			if x <= i || !high[x] {
				continue
			}
			examined++
			_, ch := b.screenPair(l, i, x, int(pc.Total[k]), int(pc.Pos[k]), &res)
			b.charge(metrics.CostMatrixScan, ch.scan)
		}
		b.charge(metrics.CostMatrixScan, int64(highAfter-examined)*int64(n))
	}

	associationSweep(l, b.Thresholds, &res, b.Meter, metrics.CostPairCheck, b.Trace, b.Name(), nil)
	res.sortPairs()
	return res
}

// screenPair runs the §IV-B threshold cascade on one high pair, with
// N_(i,j) and N+_(i,j) read off i's adjacency by the caller. It performs
// no meter charges itself: the dense-scan costs it accrues — the
// unconditional outside re-scan, the reverse matrix element, and the
// conditional outside re-scans — are returned for the caller to apply,
// fresh or replayed from the incremental cache. The charge sequence is
// identical to the dense reference implementation.
func (b *Basic) screenPair(l *reputation.Ledger, i, j, nij, posij int, res *Result) (string, pairCharges) {
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
			res.addPair(l, i, j)
			return obs.GateFlagged, ch
		}
		return obs.GateTBReverse, ch
	}
	if outI {
		res.addPair(l, i, j)
		return obs.GateFlagged, ch
	}
	ch.scan += n
	if outsideLow(b.Thresholds.Tb, l.TotalFor(j)-nji, l.PositiveFor(j)-posji) {
		res.addPair(l, i, j)
		return obs.GateFlagged, ch
	}
	return obs.GateTBOutside, ch
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

func (b *Basic) charge(name string, n int64) {
	if b.Meter != nil {
		b.Meter.Add(name, n)
	}
}

// Optimized is the detection method of Section IV-C: instead of re-scanning
// a row to compute the outside share b, it checks whether the node's
// summation reputation lies inside the Formula (2) interval, which needs
// only R_i, N_i and N_(i,j). Work is charged per bound evaluation, making
// the O(mn) complexity of Proposition 4.2 measurable.
type Optimized struct {
	Thresholds Thresholds
	// Meter, if non-nil, accumulates metrics.CostBoundCheck and
	// metrics.CostPairCheck.
	Meter *metrics.CostMeter
	// Trace, if enabled, receives a pair_audit event per examined high
	// pair, including the Formula (2) interval each side was checked
	// against. Disabled tracing adds no work and no allocations.
	Trace *obs.Tracer
	// Obs, if non-nil, receives the detect.incremental_hits/_misses
	// counter pair, exactly as on Basic.
	Obs *obs.Registry
	// Spans, if enabled, brackets every detection pass in a "detect" span,
	// exactly as on Basic.
	Spans *obs.SpanTracer

	inc *incrementalState
}

// NewOptimized returns an optimized detector with the given thresholds.
func NewOptimized(t Thresholds) *Optimized { return &Optimized{Thresholds: t} }

// Name implements Detector.
func (o *Optimized) Name() string { return "optimized" }

// Detect implements Detector.
func (o *Optimized) Detect(l *reputation.Ledger) Result {
	auditCandidates(o.Trace, o.Name(), l, o.Thresholds.TR)
	if !o.Spans.Enabled() {
		return o.detectFull(l)
	}
	o.Spans.Begin("detect")
	res := o.detectFull(l)
	o.Spans.End("detect",
		obs.Str("detector", o.Name()),
		obs.Int("pairs", len(res.Pairs)))
	return res
}

// DetectAmong implements Detector.
func (o *Optimized) DetectAmong(l *reputation.Ledger, candidates []int) Result {
	return o.detectAmong(l, candidates)
}

// DetectIncremental implements IncrementalDetector.
//
//colsim:hotpath
func (o *Optimized) DetectIncremental(l *reputation.Ledger, dirty []int) Result {
	st := ensureIncremental(&o.inc, l, o.Obs)
	auditCandidates(o.Trace, o.Name(), l, o.Thresholds.TR)
	if o.Spans.Enabled() {
		return o.detectSpanned(l, dirty, st)
	}
	return o.detectIncremental(l, dirty, st)
}

// detectSpanned brackets one incremental pass in a "detect" span, exactly
// as on Basic.
//
//colsim:coldpath span bracketing runs only when a span tracer is attached
func (o *Optimized) detectSpanned(l *reputation.Ledger, dirty []int, st *incrementalState) Result {
	h0, m0 := st.hits.Value(), st.misses.Value()
	o.Spans.Begin("detect")
	res := o.detectIncremental(l, dirty, st)
	o.Spans.End("detect",
		obs.Str("detector", o.Name()),
		obs.Int("dirty", len(dirty)),
		obs.Int("pairs", len(res.Pairs)),
		obs.I64("memo_hits", st.hits.Value()-h0),
		obs.I64("memo_misses", st.misses.Value()-m0))
	return res
}

// detectIncremental is one incremental pass, as on Basic: untraced, it
// screens only the frequent high pairs and charges the m candidates' pair
// checks in closed form; traced, it runs the full audit walk. A full pass
// registers the bound-check counter whenever a pair gets past the forward
// frequency gate, even at zero cost, so this pass does too.
//
//colsim:hotpath
func (o *Optimized) detectIncremental(l *reputation.Ledger, dirty []int, st *incrementalState) Result {
	st.refresh(l, o.Thresholds, dirty)
	if o.Trace.Enabled() {
		return o.detectFull(l)
	}
	res := st.beginPass()
	sum, examined := st.screenFrequent(l, o.Thresholds.TN, res, o)
	if st.m > 0 {
		o.charge(metrics.CostPairCheck, denseVisits(int64(l.Size()), int64(st.m)))
	}
	if examined > 0 {
		o.charge(metrics.CostBoundCheck, sum.bound)
	}
	associationSweep(l, o.Thresholds, res, o.Meter, metrics.CostPairCheck, o.Trace, o.Name(), st)
	return st.endPass(res)
}

// detectFull is the full pass over the summation candidates, as on Basic.
//
//colsim:coldpath the incremental pass reaches it only with audit tracing on, whose candidate and pair audits already cost O(n) per pass
func (o *Optimized) detectFull(l *reputation.Ledger) Result {
	return o.detectAmong(l, summationCandidates(l, o.Thresholds.TR))
}

// detectAmong is the full detection pass behind Detect and DetectAmong,
// with the same dense-scan accounting scheme as Basic.detectAmong:
// non-high column visits are charged arithmetically and only unordered
// high pairs are examined, each once, in ascending row order. Pairs
// failing the frequency gate charge nothing, so the untraced path walks
// only i's adjacency.
func (o *Optimized) detectAmong(l *reputation.Ledger, candidates []int) Result {
	n := l.Size()
	res, highList, high := beginRun(n, candidates)
	tracing := o.Trace.Enabled()

	for idx, i := range highList {
		o.charge(metrics.CostPairCheck, int64(n-1-idx))
		pc := l.PairCountsOf(i)

		if tracing {
			ri := float64(l.SummationScore(i))
			ni := l.TotalFor(i)
			k := 0
			for _, j := range highList[idx+1:] {
				for k < len(pc.Raters) && int(pc.Raters[k]) < j {
					k++
				}
				nij, posij := 0, 0
				if k < len(pc.Raters) && int(pc.Raters[k]) == j {
					nij, posij = int(pc.Total[k]), int(pc.Pos[k])
				}
				// The frequency gate rejects almost every pair, so it stays
				// inline; the full cascade runs out of line only for pairs
				// that survive it.
				nji := l.PairTotal(j, i)
				if nij < o.Thresholds.TN || nji < o.Thresholds.TN {
					o.auditPair(l, i, j, obs.GateTN)
					continue
				}
				gate, ch := o.examinePair(l, i, j, ri, ni, nij, posij, nji, &res)
				o.charge(metrics.CostBoundCheck, ch.bound)
				o.auditPair(l, i, j, gate)
			}
			continue
		}

		// Fast path: a pair with N_(i,j) = 0 fails the frequency gate with
		// no charge and no audit, so only i's adjacency needs visiting.
		for k, x32 := range pc.Raters {
			x := int(x32)
			if x <= i || !high[x] {
				continue
			}
			nij := int(pc.Total[k])
			if nij < o.Thresholds.TN {
				continue
			}
			_, ch := o.screenPair(l, i, x, nij, int(pc.Pos[k]), &res)
			o.charge(metrics.CostBoundCheck, ch.bound)
		}
	}

	associationSweep(l, o.Thresholds, &res, o.Meter, metrics.CostPairCheck, o.Trace, o.Name(), nil)
	res.sortPairs()
	return res
}

// screenPair reads the reverse matrix element and finishes the
// frequency gate before running the full cascade; split out so the full
// and incremental passes share one pairScreener.
func (o *Optimized) screenPair(l *reputation.Ledger, i, j, nij, posij int, res *Result) (string, pairCharges) {
	nji := l.PairTotal(j, i)
	if nji < o.Thresholds.TN {
		return obs.GateTN, pairCharges{}
	}
	return o.examinePair(l, i, j, float64(l.SummationScore(i)), l.TotalFor(i), nij, posij, nji, res)
}

// auditPair emits one pair_audit event with the Formula (2) intervals
// both sides were (or would have been) checked against.
//
//colsim:coldpath reached only from the tracing branch, which disabled tracing never enters
func (o *Optimized) auditPair(l *reputation.Ledger, i, j int, gate string) {
	a := pairAuditFor(l, o.Name(), i, j, gate)
	a.LoI, a.HiI = o.Thresholds.ReputationBounds(a.NI, a.NIJ)
	a.LoJ, a.HiJ = o.Thresholds.ReputationBounds(a.NJ, a.NJI)
	o.Trace.PairAudit(a)
}

// examinePair runs the §IV-C cascade on one high pair that already passed
// the frequency gate (nij, nji >= TN), records a detection, and returns
// the audit gate label. It performs no meter charges itself; bound
// evaluations are counted exactly where the dense reference charged them
// — always the first, the second only when the rule needs it — and
// returned for the caller to apply or replay.
func (o *Optimized) examinePair(l *reputation.Ledger, i, j int, ri float64, ni, nij, posij, nji int, res *Result) (string, pairCharges) {
	var ch pairCharges
	rj := float64(l.SummationScore(j))
	nj := l.TotalFor(j)
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
		res.addPair(l, i, j)
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
	holdI := o.Thresholds.BoundsHold(ri, ni, nij)
	if !holdI {
		ch.bound++
		if !o.Thresholds.BoundsHold(rj, nj, nji) {
			return obs.GateBound, ch
		}
	}
	res.addPair(l, i, j)
	return obs.GateFlagged, ch
}

func (o *Optimized) charge(name string, n int64) {
	if o.Meter != nil {
		o.Meter.Add(name, n)
	}
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
// from the pairs' nodes, and with a state the scratch marks it leaves are
// reset over that queue instead of cleared in O(n).
func associationSweep(l *reputation.Ledger, th Thresholds, res *Result, meter *metrics.CostMeter, cost string, tr *obs.Tracer, det string, st *incrementalState) {
	if th.StrictReverse {
		return
	}
	n := l.Size()
	var queue []int
	var inQueue []bool
	var pairCount []int
	if st != nil {
		queue = st.buf.queue[:0]
		inQueue, pairCount = st.buf.inQueue, st.buf.pairCount
	} else {
		//colsimlint:ignore hotalloc fresh scratch for the pure Detect/DetectAmong contract; the incremental branch above reuses st.buf
		inQueue = make([]bool, n)
		pairCount = make([]int, n) //colsimlint:ignore hotalloc fresh scratch for the pure contract, as above
	}
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
			if tr.Enabled() {
				tr.PairAudit(pairAuditFor(l, det, min2(c, x), max2(c, x), gate))
			}
		}
	}
	if meter != nil && len(queue) > 0 {
		meter.Add(cost, visits)
	}
	if st != nil {
		for _, c := range queue {
			inQueue[c] = false
			pairCount[c] = 0
		}
		st.buf.queue = queue
	}
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
// — the full T_R screen the pure Detect contract runs every call. The
// incremental path maintains the same set as the incrementalState.cand
// bitmap instead, rescreening dirty rows only.
func summationCandidates(l *reputation.Ledger, tr float64) []int {
	var out []int
	for i := 0; i < l.Size(); i++ {
		if float64(l.SummationScore(i)) >= tr {
			out = append(out, i)
		}
	}
	return out
}

// pairIndex maps the unordered pair {a, b} to its flat upper-triangular
// slot a*n+b (after normalizing a < b) in an n*n bitset.
func pairIndex(a, b, n int) int {
	if a > b {
		a, b = b, a
	}
	return a*n + b
}

func (r *Result) addPair(l *reputation.Ledger, i, j int) {
	if i > j {
		i, j = j, i
	}
	e := Evidence{I: i, J: j, NIJ: l.PairTotal(i, j), NJI: l.PairTotal(j, i)}
	if e.NIJ > 0 {
		e.AIJ = float64(l.PairPositive(i, j)) / float64(e.NIJ)
	}
	if e.NJI > 0 {
		e.AJI = float64(l.PairPositive(j, i)) / float64(e.NJI)
	}
	r.insertPair(e)
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
