package reputation

import (
	"math"
	"slices"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/parallel"
)

// EigenTrust implements the algorithm of Kamvar, Schlosser and
// Garcia-Molina (the paper's reference [9]) that the evaluation compares
// against:
//
//  1. local trust: s_ij = pos(i→j) − neg(i→j), clamped at zero;
//  2. normalization: c_ij = max(s_ij,0) / Σ_j max(s_ij,0), with rows that
//     trust nobody falling back to the pretrust distribution;
//  3. global trust: the fixed point of t = (1−α)·Cᵀt + α·p, computed by
//     damped power iteration from t₀ = p, where p is uniform over the
//     pretrusted peers (or over all peers when none are designated).
//
// The returned scores form a probability distribution over nodes, matching
// the scale of the paper's Figures 5–11.
//
// The trust matrix is never materialized densely. The engine keeps a
// column-compressed view of the positive local-trust edges (O(n + nnz)
// memory) plus the ascending list of dangling rows — raters with no
// positive experience, whose row is the pretrust distribution — and each
// power-iteration multiply costs O(nnz + d·n) where d is the dangling-row
// count (and only O(nnz + d·|support(p)|) when the pretrust vector is
// sparse, because a dangling row contributes p[j]·t[i] = 0 to every column
// j outside p's support). The scores are nevertheless bit-identical to the
// dense reference: for each output column, contributions accumulate over
// rows in strictly ascending order, exactly the float-addition chain the
// dense row scan performs (see DESIGN.md §17 for the ordering argument).
//
// Each multiply-add of the iteration is still charged to the cost meter
// under metrics.CostEigenMulAdd at the dense n² count, computed
// arithmetically — the same discipline the detectors use for their dense
// element-visit counts — so Figure 13's cost curves are independent of the
// storage layout.
type EigenTrust struct {
	// Pretrusted lists the indices of pretrusted peers (paper: IDs 1-3).
	// Out-of-range entries are ignored; duplicates count once.
	Pretrusted []int
	// Alpha is the damping weight of the pretrust distribution in each
	// iteration. The zero value selects DefaultAlpha.
	Alpha float64
	// Epsilon is the L1 convergence tolerance. The zero value selects
	// DefaultEpsilon.
	Epsilon float64
	// MaxIter bounds the power iteration. The zero value selects
	// DefaultMaxIter.
	MaxIter int
	// Workers sets the number of goroutines that build the trust matrix
	// and run each power iteration. 0, the zero value, sizes the fan-out
	// automatically: parallel.DefaultWorkers(), capped so that every
	// worker gets at least 32,768 units of matrix work (columns plus
	// ledger pairs), which keeps paper-scale networks sequential. 1 — or
	// any negative value — selects the sequential path; larger values fix
	// the goroutine count. Scores are bit-identical for every count: each
	// output column is computed whole by one worker over rows in the
	// sequential ascending order, row sums are exact integer sums in any
	// order, and the convergence sum stays one serial chain on the calling
	// goroutine (DESIGN.md §17).
	Workers int
	// Meter, if non-nil, accumulates the iteration cost.
	Meter *metrics.CostMeter
	// IterObs, if non-nil, observes the power-iteration count of every
	// Scores call — the per-cycle convergence view of the cost model.
	IterObs *obs.Histogram
	// Obs, if non-nil, receives the eigentrust.nnz and
	// eigentrust.dangling_rows gauges after every matrix build, exposing
	// the sparsity the multiply exploits.
	Obs *obs.Registry

	// iterations records the iteration count of the last Scores call,
	// exposed for the cost experiments.
	iterations int

	// m is the sparse trust matrix of the last Scores call; its storage
	// (and the iteration vectors and partial row sums below) is reused
	// across calls, so repeated engine cycles stop re-allocating the edge
	// arrays.
	m          etMatrix
	p, t, next []float64
	// blocks are the fixed column blocks of the last build; parts holds
	// the partial row sums of blocks 1..w−1, n per block, while block 0
	// accumulates into m.rowSum.
	blocks []etBlock
	parts  []float64
}

// etMatrix is the column-compressed normalized local-trust matrix. Column
// j holds the raters with positive local trust in target j — exactly the
// ledger's CSR row for target j, filtered to s_ij > 0 — so colRow is
// ascending within each column by construction. rowSum[i] is rater i's
// positive local-trust mass Σ_j max(s_ij,0), accumulated in ascending j
// order (the dense reference's row-sum chain); dangling lists, ascending,
// the rows with rowSum == 0, whose virtual row is the pretrust vector.
type etMatrix struct {
	colOff   []int     // n+1 offsets into colRow/colVal per target column
	colRow   []int32   // rater index i of each edge, ascending per column
	colVal   []float64 // normalized trust c_ij = max(s_ij,0) / rowSum[i]
	rowSum   []float64 // per-rater positive local-trust mass
	dangling []int32   // rows with no positive edges, ascending
}

// Defaults for the EigenTrust engine.
const (
	DefaultAlpha   = 0.15
	DefaultEpsilon = 1e-9
	DefaultMaxIter = 100
)

// etGrain is the least matrix work, counted in columns plus ledger pairs,
// that the auto-sized fan-out (Workers == 0) hands each worker. Below it
// the goroutine start-up of each parallel pass costs more than the work
// it splits, and a paper-scale network (n = 200, fewer than 40k pairs)
// stays sequential.
const etGrain = 1 << 15

// NewEigenTrust returns an engine with default damping and convergence
// parameters.
func NewEigenTrust(pretrusted []int) *EigenTrust {
	return &EigenTrust{Pretrusted: pretrusted}
}

// Name implements Engine.
func (e *EigenTrust) Name() string { return "eigentrust" }

// Iterations returns the power-iteration count of the most recent Scores
// call.
func (e *EigenTrust) Iterations() int { return e.iterations }

// NNZ returns the number of positive local-trust edges in the most recent
// Scores call's sparse matrix.
func (e *EigenTrust) NNZ() int { return len(e.m.colRow) }

// DanglingRows returns how many raters had no positive experience in the
// most recent Scores call — the rows that fall back to the pretrust
// distribution.
func (e *EigenTrust) DanglingRows() int { return len(e.m.dangling) }

func (e *EigenTrust) params() (alpha, eps float64, maxIter int) {
	alpha, eps, maxIter = e.Alpha, e.Epsilon, e.MaxIter
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if maxIter == 0 {
		maxIter = DefaultMaxIter
	}
	return alpha, eps, maxIter
}

// Scores implements Engine. Memory is O(n + nnz): no dense row is ever
// materialized, and the matrix, vector and scratch storage persists on the
// engine across calls.
func (e *EigenTrust) Scores(l *Ledger) []float64 {
	n := l.Size()
	alpha, eps, maxIter := e.params()
	workers := e.fanout(l)

	e.p = floatSlice(e.p, n)
	e.pretrustInto(e.p)
	e.build(l, n, workers)
	if e.Obs != nil {
		e.Obs.Gauge("eigentrust.nnz").Set(float64(e.NNZ()))
		e.Obs.Gauge("eigentrust.dangling_rows").Set(float64(e.DanglingRows()))
	}

	// Damped power iteration: t ← (1−α)·Cᵀt + α·p.
	t := floatSlice(e.t, n)
	copy(t, e.p)
	next := floatSlice(e.next, n)
	e.iterations = 0
	for iter := 0; iter < maxIter; iter++ {
		e.iterations++
		e.multiply(t, next, alpha, workers)
		if e.Meter != nil {
			// Cost-model policy: the meter still charges the dense n²
			// multiply-add count arithmetically, whatever the storage
			// layout, so Figure 13's curves depend only on network size
			// and iteration count.
			e.Meter.Add(metrics.CostEigenMulAdd, int64(n)*int64(n))
		}
		// The convergence test stays on the calling goroutine: keeping
		// its single left-to-right float accumulation chain guarantees the
		// iteration count — and therefore the returned scores — cannot
		// depend on the worker count.
		delta := 0.0
		for j := 0; j < n; j++ {
			delta += math.Abs(next[j] - t[j])
		}
		t, next = next, t
		if delta < eps {
			break
		}
	}
	e.t, e.next = t, next
	e.IterObs.Observe(int64(e.iterations))
	// The scratch vectors stay owned by the engine; callers get a fresh
	// copy they may retain or mutate.
	out := make([]float64, n)
	copy(out, t)
	return out
}

// fanout resolves Workers into the goroutine count of one Scores call
// over l, never more than one per column.
func (e *EigenTrust) fanout(l *Ledger) int {
	n := l.Size()
	w := e.Workers
	if w == 0 {
		w = min(parallel.DefaultWorkers(), (n+l.pairCount(0, n))/etGrain)
	}
	return max(1, min(w, n))
}

// build constructs the column-compressed trust matrix straight from the
// ledger's CSR views in O(n + nnz), over fixed column blocks. Block w
// appends its columns' positive edges, rater i ascending within each column
// (the ledger's adjacency order), from slot base: the ledger pairs of the
// blocks before it, an upper bound on their positive edges. It also
// accumulates its own partial row sums. A serial pass then closes the
// gaps between blocks, and a last pass normalizes every edge. Row sums are
// sums of positive integers, exact in float64 in any order while a rater
// has issued fewer than 2^53 ratings, so the summed partials carry the
// bits of the dense reference's ascending-j chain and every normalized
// value c_ij = s_ij / rowSum[i] is bit-identical for every worker count.
func (e *EigenTrust) build(l *Ledger, n, workers int) {
	m := &e.m
	m.colOff = intSlice(m.colOff, n+1)
	m.rowSum = floatSlice(m.rowSum, n)
	e.parts = floatSlice(e.parts, (workers-1)*n)
	e.blocks = slices.Grow(e.blocks[:0], workers)[:workers]
	slots := 0
	for w := range e.blocks {
		b := &e.blocks[w]
		b.lo, b.hi, b.base = w*n/workers, (w+1)*n/workers, slots
		slots += l.pairCount(b.lo, b.hi)
	}
	m.colRow = slices.Grow(m.colRow[:0], slots)[:slots]
	m.colVal = slices.Grow(m.colVal[:0], slots)[:slots]
	if workers == 1 {
		e.appendColumns(l, &e.blocks[0], m.rowSum)
	} else {
		parallel.ForEach(workers, workers, func(w int) {
			sum := m.rowSum
			if w > 0 {
				sum = e.parts[(w-1)*n : w*n]
			}
			e.appendColumns(l, &e.blocks[w], sum)
		})
		parallel.Blocks(workers, n, func(lo, hi int) { e.sumPartials(n, lo, hi) })
	}
	// Move each block's edges down behind the previous block's, shifting
	// its column offsets alike; copy moves overlapping ranges safely.
	nnz := e.blocks[0].end
	for _, b := range e.blocks[1:] {
		copy(m.colRow[nnz:], m.colRow[b.base:b.end])
		copy(m.colVal[nnz:], m.colVal[b.base:b.end])
		for j := b.lo; j < b.hi; j++ {
			m.colOff[j+1] -= b.base - nnz
		}
		nnz += b.end - b.base
	}
	m.colOff[0] = 0
	m.colRow, m.colVal = m.colRow[:nnz], m.colVal[:nnz]
	// A peer with no positive experience defers to the pretrust
	// distribution, as in the original algorithm. rowSum only accumulates
	// values >= 1, so == 0 is exact "no positive edges".
	m.dangling = m.dangling[:0]
	for i := 0; i < n; i++ {
		if m.rowSum[i] == 0 {
			m.dangling = append(m.dangling, int32(i))
		}
	}
	if workers == 1 {
		e.normalize(0, nnz)
	} else {
		parallel.Blocks(workers, nnz, func(lo, hi int) { e.normalize(lo, hi) })
	}
}

// etBlock is one column block of a matrix build: columns lo <= j < hi,
// whose edges the append pass writes to slots base <= k < end.
type etBlock struct {
	lo, hi, base, end int
}

// appendColumns writes block b's positive edges from slot b.base on,
// unnormalized, sets each column's end offset in colOff and b.end, and
// accumulates the block's positive local trust into sum, which it clears
// first.
func (e *EigenTrust) appendColumns(l *Ledger, b *etBlock, sum []float64) {
	m := &e.m
	clear(sum)
	at := b.base
	for j := b.lo; j < b.hi; j++ {
		pc := l.PairCountsOf(j)
		for k, r := range pc.Raters {
			if s := pc.Pos[k] - pc.Neg[k]; s > 0 {
				m.colRow[at] = r
				m.colVal[at] = float64(s)
				sum[r] += float64(s)
				at++
			}
		}
		m.colOff[j+1] = at
	}
	b.end = at
}

// sumPartials folds the partial row sums of column blocks 1..w−1 into
// rowSum for rows lo <= i < hi.
func (e *EigenTrust) sumPartials(n, lo, hi int) {
	rowSum := e.m.rowSum
	for b := 0; b < len(e.parts); b += n {
		part := e.parts[b : b+n]
		for i := lo; i < hi; i++ {
			rowSum[i] += part[i]
		}
	}
}

// normalize divides edges lo <= k < hi by their rater's row sum, giving
// c_ij = s_ij / rowSum[i]; each is one independent division.
func (e *EigenTrust) normalize(lo, hi int) {
	m := &e.m
	for k := lo; k < hi; k++ {
		m.colVal[k] /= m.rowSum[m.colRow[k]]
	}
}

// multiply computes one damped power-iteration step, next = (1−α)·Cᵀt +
// α·p, over the sparse matrix. The parallel path partitions the output
// columns into fixed contiguous blocks; each worker runs the same column
// kernel the sequential path runs, so the result is bit-identical for
// every worker count.
//
//colsim:hotpath
func (e *EigenTrust) multiply(t, next []float64, alpha float64, workers int) {
	n := len(t)
	if workers <= 1 {
		e.multiplyColumns(t, next, alpha, 0, n)
		return
	}
	parallel.Blocks(workers, n, func(jlo, jhi int) { //colsimlint:ignore hotalloc one worker-closure fan-out per multiply, amortized over the matrix's nonzeros
		e.multiplyColumns(t, next, alpha, jlo, jhi)
	})
}

// multiplyColumns computes next[j] for columns jlo <= j < jhi. For each
// column it merges the column's edge rows with the dangling rows in
// strictly ascending row order — the two sets are disjoint, edge rows
// contribute c_ij·t[i] and dangling rows p[j]·t[i] — reproducing the dense
// reference's ascending-i accumulation chain, then damps the sum exactly as
// the reference does. The reference skips rows with t[i] == 0; the kernel
// adds their terms without testing, and columns with p[j] == 0 skip the
// dangling merge entirely: every term is non-negative, so a term the
// reference skips is an IEEE +0 that leaves the accumulator bit-identical.
// Testing t[i] per edge would only add a branch that mispredicts whenever
// trust is patchy, as it is while it spreads from a few pretrusted peers.
//
//colsim:hotpath
func (e *EigenTrust) multiplyColumns(t, next []float64, alpha float64, jlo, jhi int) {
	m := &e.m
	colOff, colRow, colVal := m.colOff, m.colRow, m.colVal
	dang := m.dangling
	p := e.p
	keep := 1 - alpha
	for j := jlo; j < jhi; j++ {
		acc := 0.0
		ke, keEnd := colOff[j], colOff[j+1]
		pj := p[j]
		if pj != 0 {
			kd, kdEnd := 0, len(dang)
			for ke < keEnd && kd < kdEnd {
				if colRow[ke] < dang[kd] {
					acc += colVal[ke] * t[colRow[ke]]
					ke++
				} else {
					acc += pj * t[dang[kd]]
					kd++
				}
			}
			for ; kd < kdEnd; kd++ {
				acc += pj * t[dang[kd]]
			}
		}
		rows, vals := colRow[ke:keEnd], colVal[ke:keEnd]
		vals = vals[:len(rows)] // equal lengths drop the vals[k] bounds check
		for k, i := range rows {
			acc += vals[k] * t[i]
		}
		next[j] = keep*acc + alpha*pj
	}
}

// pretrustInto fills p with the pretrust distribution: uniform over the
// distinct in-range pretrusted indices, or uniform over everyone when none
// are valid. Out-of-range entries are ignored and duplicates count once,
// so the vector always sums to one.
func (e *EigenTrust) pretrustInto(p []float64) {
	n := len(p)
	for i := range p {
		p[i] = 0
	}
	valid := 0
	for _, idx := range e.Pretrusted {
		if idx >= 0 && idx < n && p[idx] == 0 {
			p[idx] = 1 // mark; replaced by the uniform share below
			valid++
		}
	}
	if valid == 0 {
		for i := range p {
			p[i] = 1 / float64(n)
		}
		return
	}
	share := 1 / float64(valid)
	for i := range p {
		if p[i] != 0 {
			p[i] = share
		}
	}
}

// floatSlice returns s resized to n, reusing its backing array when
// capacity allows. Contents are unspecified; callers overwrite.
func floatSlice(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// intSlice is floatSlice for []int.
func intSlice(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
