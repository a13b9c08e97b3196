// Package reputation implements the rating ledger and the reputation
// engines the paper builds on: the eBay/Amazon-style summation score used
// to derive the optimized detector's Formula (1), the weighted-sum scoring
// the paper describes in Section V (normal raters weighted w1=0.2,
// pretrusted raters w2=0.5), and the full EigenTrust algorithm (normalized
// local trust, pretrust vector, damped power iteration) from the paper's
// reference [9].
package reputation

import (
	"fmt"
	"slices"
)

// Ledger accumulates the ratings of one global-reputation period T for a
// fixed population of n nodes (indices 0..n-1).
//
// Index convention (matching the paper's rating matrix in Section IV-B):
// the first index is the *target* (the rated node n_i) and the second is
// the *rater* (n_j). So PairTotal(i, j) is the paper's N_(i,j): the number
// of ratings n_i received from n_j during T.
//
// Storage is CSR-style sparse: each target row keeps its active raters in
// an ascending adjacency list with the per-pair counts in aligned columns,
// so total memory is O(n + nnz) where nnz is the number of nonzero
// (target, rater) pairs — never the dense n² the paper's matrix notation
// suggests. The rating matrix is extremely sparse in the paper's traces
// (characteristic C4: the average Amazon pair trades about once a year),
// which is what makes population sizes around n=100,000 practical.
//
// Rows live in a chunked arena (see arena.go): each row is a power-of-two
// span of four parallel int32 columns inside large shared blocks, resized
// by moving between size classes whose spans recycle through intrusive
// free lists. Mutation therefore allocates only when the arena grows a
// block — never per rating and never per merged row — which is what keeps
// Record, Merge and Subtract allocation-free in the steady state.
//
// Ledger is not safe for concurrent mutation; the simulation engine is
// deterministic and single-threaded by design.
type Ledger struct {
	n int

	// rows[target] locates the target's adjacency span in the arena:
	// ascending active raters with aligned total/pos/neg counts. Detection
	// inner loops iterate these spans instead of scanning all n columns,
	// which is what makes the hot path cost proportional to the number of
	// nonzero pairs. A neutral (polarity 0) rating counts toward the total
	// only, so neg is not derivable from total-pos.
	rows []rowRef
	ar   arena

	recvTotal []int64 // N_i per target
	recvPos   []int64
	recvNeg   []int64
	sentTotal []int64 // outgoing ratings per rater

	// dirty/dirtyList track which target rows changed since the last
	// ClearDirty — the deterministic dirty set incremental detection keys
	// its candidate maintenance on (see DirtyTargets). rowGen counts every
	// mutation of a row, monotonically and independently of ClearDirty —
	// the per-target generation incremental detection keys its memoized
	// pair screens on (see RowGen).
	dirty     []bool
	dirtyList []int32
	rowGen    []uint64
}

// NewLedger creates an empty ledger for n nodes. It panics if n <= 0.
// Allocation is O(n): the per-pair count storage grows with the number of
// distinct rating pairs actually recorded.
func NewLedger(n int) *Ledger {
	if n <= 0 {
		panic(fmt.Sprintf("reputation: NewLedger(%d), want n > 0", n))
	}
	return &Ledger{
		n:         n,
		rows:      make([]rowRef, n),
		ar:        arena{bumpBlk: -1},
		recvTotal: make([]int64, n),
		recvPos:   make([]int64, n),
		recvNeg:   make([]int64, n),
		sentTotal: make([]int64, n),
		dirty:     make([]bool, n),
		rowGen:    make([]uint64, n),
	}
}

// Size returns the node population the ledger covers.
func (l *Ledger) Size() int { return l.n }

// pairCount returns the number of active (target, rater) pairs in target
// rows lo <= j < hi — the ledger's nnz over that range — in one pass over
// the row headers.
func (l *Ledger) pairCount(lo, hi int) int {
	nnz := 0
	for _, r := range l.rows[lo:hi] {
		nnz += int(r.n)
	}
	return nnz
}

// row returns the four live column views of target's adjacency span (nil
// for an empty row).
func (l *Ledger) row(target int) (rs, tot, pos, neg []int32) {
	r := l.rows[target]
	if r.class == 0 {
		return nil, nil, nil, nil
	}
	return l.ar.spanViews(r, r.n)
}

// Record stores one rating of polarity -1, 0 or +1 from rater about target.
// It panics on out-of-range indices, self-ratings, or invalid polarity,
// because those are programming errors in the caller, not data conditions.
//
//colsim:hotpath
func (l *Ledger) Record(rater, target, polarity int) {
	if rater < 0 || rater >= l.n || target < 0 || target >= l.n {
		panic(fmt.Sprintf("reputation: Record(%d, %d) out of range [0,%d)", rater, target, l.n))
	}
	if rater == target {
		panic(fmt.Sprintf("reputation: node %d rated itself", rater))
	}
	if polarity < -1 || polarity > 1 {
		panic(fmt.Sprintf("reputation: polarity %d, want -1, 0 or 1", polarity))
	}
	rs, tot, pos, neg := l.row(target)
	idx, found := findRater(rs, int32(rater))
	if !found {
		l.insertRaterAt(target, idx, int32(rater))
		_, tot, pos, neg = l.row(target)
	}
	tot[idx]++
	l.recvTotal[target]++
	l.sentTotal[rater]++
	switch polarity {
	case 1:
		pos[idx]++
		l.recvPos[target]++
	case -1:
		neg[idx]++
		l.recvNeg[target]++
	}
	l.markDirty(target)
}

// findRater binary-searches an ascending adjacency list. It returns the
// index of rater when present, else the insertion position.
func findRater(rs []int32, rater int32) (int, bool) {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rs[mid] < rater {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(rs) && rs[lo] == rater
}

// insertRaterAt adds rater to target's adjacency at position idx, keeping
// all four aligned columns in ascending-rater order with zero counts.
// Lists stay short on sparse workloads, so the shifting insert is cheap; a
// full span moves to the next size class through the arena free lists, so
// growth allocates nothing once the arena blocks exist.
func (l *Ledger) insertRaterAt(target, idx int, rater int32) {
	r := &l.rows[target]
	switch {
	case r.class == 0:
		r.blk, r.off = l.ar.alloc(arenaMinClass)
		r.class = arenaMinClass
	case r.n == rowCap(r.class):
		l.growRow(r)
	}
	n := int(r.n)
	rs, tot, pos, neg := l.ar.spanViews(*r, r.n+1)
	copy(rs[idx+1:], rs[idx:n])
	copy(tot[idx+1:], tot[idx:n])
	copy(pos[idx+1:], pos[idx:n])
	copy(neg[idx+1:], neg[idx:n])
	rs[idx], tot[idx], pos[idx], neg[idx] = rater, 0, 0, 0
	r.n++
}

// growRow moves a full row span to the next size class, recycling the old
// span through its class free list.
func (l *Ledger) growRow(r *rowRef) {
	class := r.class + 1
	blk, off := l.ar.alloc(class)
	l.ar.copySpan(blk, off, r.blk, r.off, r.n)
	l.ar.freeSpan(r.blk, r.off, r.class)
	r.blk, r.off, r.class = blk, off, class
}

// RatersOf returns the ascending indices of every rater that has rated
// target at least once this period: exactly the j with PairTotal(target, j)
// > 0. The returned slice is a live view into the ledger — callers must
// not modify it, and it is invalidated by the next Record, Merge or Reset.
func (l *Ledger) RatersOf(target int) []int32 {
	rs, _, _, _ := l.row(target)
	return rs
}

// PairCounts is one target row's adjacency with its aligned per-pair
// counts: for each k, Raters[k] rated the target Total[k] times, Pos[k]
// positively and Neg[k] negatively. Raters is ascending.
type PairCounts struct {
	Raters []int32
	Total  []int32
	Pos    []int32
	Neg    []int32
}

// PairCountsOf returns target's active raters together with the aligned
// rating counts, so detection and scoring loops read N_(i,j) in the same
// pass as the adjacency with no per-pair lookup. Live view, same
// invalidation rules as RatersOf.
func (l *Ledger) PairCountsOf(target int) PairCounts {
	rs, tot, pos, neg := l.row(target)
	return PairCounts{Raters: rs, Total: tot, Pos: pos, Neg: neg}
}

// DirtyTargets returns, ascending, every target whose received-rating row
// changed (Record, Merge, Subtract or Reset) since the last ClearDirty —
// or since creation. The set depends only on the sequence of mutations,
// never on map order or timing, so passing it to the incremental detectors
// keeps seeded runs deterministic. The returned slice is freshly
// allocated.
func (l *Ledger) DirtyTargets() []int {
	if len(l.dirtyList) == 0 {
		return nil
	}
	out := make([]int, len(l.dirtyList))
	for i, t := range l.dirtyList {
		out[i] = int(t)
	}
	slices.Sort(out)
	return out
}

// DirtyCount returns how many target rows are currently dirty — the size
// of the DirtyTargets set without paying for its allocation and sort.
func (l *Ledger) DirtyCount() int { return len(l.dirtyList) }

// ClearDirty empties the dirty-target set. Callers snapshot DirtyTargets,
// feed it to incremental detection, then clear. Row generations are not
// affected: they advance monotonically for the life of the ledger.
func (l *Ledger) ClearDirty() {
	for _, t := range l.dirtyList {
		l.dirty[t] = false
	}
	l.dirtyList = l.dirtyList[:0]
}

// RowGen returns target's row generation: a counter advanced by every
// mutation that touches the row (Record, Merge, Subtract, Reset),
// independent of ClearDirty. Two reads returning the same value bracket a
// window in which every row-derived statistic — pair counts, receive
// totals, the summation score — was unchanged, which is what lets the
// incremental detectors replay memoized pair screens across in-place
// ledger mutations instead of keying on ledger identity.
func (l *Ledger) RowGen(target int) uint64 { return l.rowGen[target] }

func (l *Ledger) markDirty(target int) {
	l.rowGen[target]++
	if !l.dirty[target] {
		l.dirty[target] = true
		l.dirtyList = append(l.dirtyList, int32(target)) //colsimlint:ignore hotalloc grows once per newly-dirty target and is truncated in place by ClearDirty, so steady state re-uses the backing array
	}
}

// Reset clears the ledger for a new period T. Cost is O(n): every row
// span returns to its arena free list, so the next period's rows recycle
// the same chunks — the window ring relies on this to stay
// allocation-free across periods.
func (l *Ledger) Reset() {
	for t := range l.rows {
		r := &l.rows[t]
		if r.class == 0 {
			continue
		}
		l.markDirty(t)
		l.ar.freeSpan(r.blk, r.off, r.class)
		*r = rowRef{}
	}
	clearInt64(l.recvTotal)
	clearInt64(l.recvPos)
	clearInt64(l.recvNeg)
	clearInt64(l.sentTotal)
}

func clearInt64(xs []int64) {
	for i := range xs {
		xs[i] = 0
	}
}

// TotalFor returns N_i: all ratings target received in T.
func (l *Ledger) TotalFor(target int) int { return int(l.recvTotal[target]) }

// PositiveFor returns N+_i: positive ratings target received in T.
func (l *Ledger) PositiveFor(target int) int { return int(l.recvPos[target]) }

// OutgoingTotal returns the number of ratings rater issued in T, across
// all targets. The Sybil detector uses it to measure a rater's
// concentration on one beneficiary.
func (l *Ledger) OutgoingTotal(rater int) int { return int(l.sentTotal[rater]) }

// PairTotal returns N_(i,j): ratings target i received from rater j.
// Random access binary-searches the row adjacency; loops that walk a whole
// row should use PairCountsOf instead.
func (l *Ledger) PairTotal(target, rater int) int {
	rs, tot, _, _ := l.row(target)
	if idx, found := findRater(rs, int32(rater)); found {
		return int(tot[idx])
	}
	return 0
}

// PairPositive returns N+_(i,j).
func (l *Ledger) PairPositive(target, rater int) int {
	rs, _, pos, _ := l.row(target)
	if idx, found := findRater(rs, int32(rater)); found {
		return int(pos[idx])
	}
	return 0
}

// OthersTotal returns N_(i,-j): ratings target i received from everyone
// except rater j.
func (l *Ledger) OthersTotal(target, rater int) int {
	return int(l.recvTotal[target]) - l.PairTotal(target, rater)
}

// OthersPositive returns N+_(i,-j).
func (l *Ledger) OthersPositive(target, rater int) int {
	return int(l.recvPos[target]) - l.PairPositive(target, rater)
}

// SummationScore returns the eBay-style reputation of target: the sum of
// all received rating values (positives minus negatives), as defined in
// Section IV-A.
func (l *Ledger) SummationScore(target int) int {
	return int(l.recvPos[target] - l.recvNeg[target])
}

// CloneInto freezes l's current contents into dst, which must cover the
// same population. dst's previous contents are discarded: every existing
// row span returns to dst's arena free lists before the copy, so repeated
// CloneInto calls into the same destination recycle the same chunks and
// allocate only while dst's arena is still growing toward l's footprint —
// the steady state is allocation-free. Each row lands in the smallest span
// class that holds it. This is the snapshot freeze path of the resident
// service (internal/service): the single writer clones the period ledger
// into a recycled snapshot ledger each epoch, and concurrent readers of
// previously published clones are safe because the destination shares no
// storage with l.
//
// The copy owns its storage outright: no span, column view or counter is
// shared with l, so the two ledgers may mutate — Record, Merge, Subtract,
// even Reset, in any interleaving — without ever observing each other. In
// particular a Reset of l recycles only l's arena spans through its own
// free lists; dst's rows live in dst's arena and are untouched. The
// arena-recycling property test in ledger_clone_test.go pins this across
// clone/mutate/Reset interleavings against a dense reference.
//
// dst's dirty set, dirty list and row generations are overwritten with
// copies of l's. It panics if the populations differ: recycling a snapshot
// across population changes is a programming error.
func (l *Ledger) CloneInto(dst *Ledger) {
	if dst.n != l.n {
		panic(fmt.Sprintf("reputation: CloneInto ledger of size %d from size %d", dst.n, l.n))
	}
	for t := range dst.rows {
		r := &dst.rows[t]
		if r.class == 0 {
			continue
		}
		dst.ar.freeSpan(r.blk, r.off, r.class)
		*r = rowRef{}
	}
	for t := 0; t < l.n; t++ {
		rs, tot, pos, neg := l.row(t)
		if len(rs) == 0 {
			continue
		}
		class := classFor(len(rs))
		blk, off := dst.ar.alloc(class)
		dst.rows[t] = rowRef{blk: blk, off: off, n: int32(len(rs)), class: class}
		dr, dt, dp, dn := dst.ar.spanViews(dst.rows[t], int32(len(rs)))
		copy(dr, rs)
		copy(dt, tot)
		copy(dp, pos)
		copy(dn, neg)
	}
	copy(dst.recvTotal, l.recvTotal)
	copy(dst.recvPos, l.recvPos)
	copy(dst.recvNeg, l.recvNeg)
	copy(dst.sentTotal, l.sentTotal)
	copy(dst.dirty, l.dirty)
	dst.dirtyList = append(dst.dirtyList[:0], l.dirtyList...)
	copy(dst.rowGen, l.rowGen)
}

// Merge adds every count of other into l. Both ledgers must cover the same
// population. Only other's nonzero rows are visited, so merging costs
// O(n + nnz(l) + nnz(other)) — not the dense n² walk.
//
//colsim:hotpath
func (l *Ledger) Merge(other *Ledger) error {
	if other.n != l.n {
		return fmt.Errorf("reputation: merging ledger of size %d into size %d", other.n, l.n) //colsimlint:ignore hotalloc size-mismatch guard; allocates only on caller error, never in a valid merge
	}
	for t := 0; t < l.n; t++ {
		if other.rows[t].n == 0 {
			continue
		}
		l.mergeRow(t, other)
		l.recvTotal[t] += other.recvTotal[t]
		l.recvPos[t] += other.recvPos[t]
		l.recvNeg[t] += other.recvNeg[t]
		l.markDirty(t)
	}
	for r := 0; r < l.n; r++ {
		l.sentTotal[r] += other.sentTotal[r]
	}
	return nil
}

// Subtract removes every count of other from l — the exact inverse of
// Merge. Both ledgers must cover the same population, and other must be a
// sub-ledger of l: every count it holds must be present in l with at least
// that value. Raters whose pair total reaches zero are dropped from the
// row adjacency, so subtracting a period delta leaves the ledger
// observationally identical to a fresh merge of the remaining periods —
// this is what lets a sliding window retire its expiring cycle without
// re-merging the whole ring (see internal/ingest.WindowLedger). Underflow
// panics: handing Subtract anything but a recorded sub-ledger is a
// programming error, not a data condition. Rows are compacted in place, so
// live PairCountsOf/RatersOf views of l are invalidated.
//
//colsim:hotpath
func (l *Ledger) Subtract(other *Ledger) error {
	if other.n != l.n {
		return fmt.Errorf("reputation: subtracting ledger of size %d from size %d", other.n, l.n) //colsimlint:ignore hotalloc size-mismatch guard; allocates only on caller error, never in a valid subtract
	}
	for t := 0; t < l.n; t++ {
		if other.rows[t].n == 0 {
			continue
		}
		l.subtractRow(t, other)
		l.recvTotal[t] -= other.recvTotal[t]
		l.recvPos[t] -= other.recvPos[t]
		l.recvNeg[t] -= other.recvNeg[t]
		if l.recvTotal[t] < 0 || l.recvPos[t] < 0 || l.recvNeg[t] < 0 {
			panic(fmt.Sprintf("reputation: Subtract underflow on target %d totals", t))
		}
		l.markDirty(t)
	}
	for r := 0; r < l.n; r++ {
		l.sentTotal[r] -= other.sentTotal[r]
		if l.sentTotal[r] < 0 {
			panic(fmt.Sprintf("reputation: Subtract underflow on rater %d outgoing total", r))
		}
	}
	return nil
}

// subtractRow removes other's row for target t from l's, compacting the
// aligned adjacency in place and keeping it ascending. Every rater of
// other's row must appear in l's with counts at least as large. A row
// emptied by the subtraction releases its span back to the arena.
func (l *Ledger) subtractRow(t int, other *Ledger) {
	a, at, ap, an := l.row(t)
	b, bt, bp, bn := other.row(t)
	out, j := 0, 0
	for i := 0; i < len(a); i++ {
		tot, pos, neg := at[i], ap[i], an[i]
		if j < len(b) && b[j] == a[i] {
			tot -= bt[j]
			pos -= bp[j]
			neg -= bn[j]
			j++
		}
		if tot < 0 || pos < 0 || neg < 0 {
			panic(fmt.Sprintf("reputation: Subtract underflow on pair (%d, %d)", t, a[i]))
		}
		if tot == 0 {
			// A zero total forces zero splits (pos+neg <= tot per pair), so
			// the rater leaves the adjacency entirely.
			if pos != 0 || neg != 0 {
				panic(fmt.Sprintf("reputation: Subtract left pair (%d, %d) with zero total but %d/%d splits",
					t, a[i], pos, neg))
			}
			continue
		}
		a[out] = a[i]
		at[out] = tot
		ap[out] = pos
		an[out] = neg
		out++
	}
	if j < len(b) {
		panic(fmt.Sprintf("reputation: Subtract of rater %d absent from target %d's row", b[j], t))
	}
	r := &l.rows[t]
	r.n = int32(out)
	if out == 0 {
		l.ar.freeSpan(r.blk, r.off, r.class)
		*r = rowRef{}
	}
}

// mergeRow folds other's row for target t into l's, keeping the aligned
// adjacency ascending. A fresh destination row copies into a recycled span
// of the right class; a union that fits the existing span merges backward
// in place; only a union outgrowing the span moves the row to a larger
// class — and the outgrown span goes straight back on its free list, so no
// path here allocates once the arena is warm.
func (l *Ledger) mergeRow(t int, other *Ledger) {
	b, bt, bp, bn := other.row(t)
	a, at, ap, an := l.row(t)
	if len(a) == 0 {
		class := classFor(len(b))
		r := &l.rows[t]
		r.blk, r.off = l.ar.alloc(class)
		r.n, r.class = int32(len(b)), class
		dr, dt, dp, dn := l.ar.spanViews(*r, r.n)
		copy(dr, b)
		copy(dt, bt)
		copy(dp, bp)
		copy(dn, bn)
		return
	}
	u := unionLen(a, b)
	r := &l.rows[t]
	if int32(u) > rowCap(r.class) {
		class := classFor(u)
		blk, off := l.ar.alloc(class)
		moved := rowRef{blk: blk, off: off, n: r.n, class: class}
		l.ar.copySpan(blk, off, r.blk, r.off, r.n)
		l.ar.freeSpan(r.blk, r.off, r.class)
		*r = moved
		a, at, ap, an = l.row(t)
	}
	// Backward in-place merge: the write cursor never passes an unread
	// element of a (w >= i always holds because the union is at least as
	// long as a's unread prefix), so the row merges without scratch
	// storage even when a and b alias.
	mr, mt, mp, mn := l.ar.spanViews(*r, int32(u))
	i, j, w := len(a)-1, len(b)-1, u-1
	for j >= 0 {
		switch {
		case i >= 0 && a[i] > b[j]:
			mr[w], mt[w], mp[w], mn[w] = a[i], at[i], ap[i], an[i]
			i--
		case i >= 0 && a[i] == b[j]:
			mr[w], mt[w], mp[w], mn[w] = a[i], at[i]+bt[j], ap[i]+bp[j], an[i]+bn[j]
			i--
			j--
		default:
			mr[w], mt[w], mp[w], mn[w] = b[j], bt[j], bp[j], bn[j]
			j--
		}
		w--
	}
	r.n = int32(u)
}

// unionLen counts the distinct raters of two ascending adjacency lists.
func unionLen(a, b []int32) int {
	i, j, u := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		u++
	}
	return u + (len(a) - i) + (len(b) - j)
}
