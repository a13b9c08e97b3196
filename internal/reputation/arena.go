package reputation

import "math/bits"

// The ledger's row storage is a chunked arena: large fixed-size blocks of
// four parallel int32 columns (rater id, total, positive, negative), carved
// into power-of-two spans that rows reference by (block, offset, length).
// Growing a row to its next size class copies it into a new span and
// returns the old one to a per-class free list, so the steady state of any
// workload — window deltas reset every period, window rows that shrink
// and regrow as periods expire — recycles spans instead of touching the
// heap. Building the ledger therefore allocates O(blocks), not one
// append chain per (target, rater) pair: the n=100k / 1M-rating footprint
// benchmark drops from ~1.46M allocations to a few hundred.
//
// Free lists are intrusive: a freed span stores the next free span's
// handle in its own first rater slot, so pushing and popping spans
// allocates nothing and needs no side arrays. Handles pack (block <<
// arenaBlockShift | offset) + 1, with 0 meaning "empty list", so the
// zero-valued arena is ready to use.
//
// Spans never outgrow a block; a row whose capacity class exceeds
// arenaBlockShift gets a dedicated block of exactly its span size (blocks
// are independently sized slices, so oversized rows cost their actual
// length, and on free the whole block recycles through its class list).
const (
	arenaBlockShift = 16 // 65536 entries per standard block
	arenaBlockSize  = 1 << arenaBlockShift
	arenaMinClass   = 2 // smallest span holds 4 raters
	arenaMaxClass   = 31
)

// rowRef locates one target row inside the arena: a span of 1<<class
// entries starting at offset off of block blk, of which the first n hold
// live data. class == 0 means the row has no span (real classes start at
// arenaMinClass); the ledger maintains the invariant n == 0 ⇔ class == 0.
type rowRef struct {
	blk, off int32
	n        int32
	class    int8
}

// arena owns the blocks and the per-class free lists. The zero value is
// valid except for bumpBlk, which NewLedger sets to -1 (no bump block yet).
type arena struct {
	raters [][]int32
	total  [][]int32
	pos    [][]int32
	neg    [][]int32

	bumpBlk int32 // block the bump allocator carves standard spans from
	bumpOff int32

	// free[c] heads the intrusive free list of spans with capacity 1<<c,
	// encoded (blk<<arenaBlockShift|off)+1; 0 is the empty list.
	free [arenaMaxClass + 1]int32
}

// classFor returns the smallest span class whose capacity holds n entries.
func classFor(n int) int8 {
	c := int8(bits.Len(uint(n - 1)))
	if c < arenaMinClass {
		c = arenaMinClass
	}
	return c
}

// rowCap is the span capacity of a class.
func rowCap(class int8) int32 { return int32(1) << class }

// alloc hands out a span of 1<<class entries: a free-list pop when the
// class has a recycled span, a bump advance otherwise. Only block growth —
// once per arenaBlockSize entries — reaches the allocator.
func (a *arena) alloc(class int8) (blk, off int32) {
	if h := a.free[class]; h != 0 {
		h--
		blk, off = h>>arenaBlockShift, h&(arenaBlockSize-1)
		a.free[class] = a.raters[blk][off]
		return blk, off
	}
	if class >= arenaBlockShift {
		return a.growDedicated(class)
	}
	size := rowCap(class)
	if a.bumpBlk < 0 || a.bumpOff+size > arenaBlockSize {
		a.grow()
	}
	blk, off = a.bumpBlk, a.bumpOff
	a.bumpOff += size
	return blk, off
}

// freeSpan returns a span to its class free list, threading the list link
// through the span's own first rater slot.
func (a *arena) freeSpan(blk, off int32, class int8) {
	a.raters[blk][off] = a.free[class]
	a.free[class] = (blk<<arenaBlockShift | off) + 1
}

// grow appends one standard block (four aligned columns) and makes it the
// bump block. The tail of the previous bump block is not wasted: it is
// decomposed into power-of-two spans and pushed onto the free lists.
//
//colsim:coldpath one four-column block allocation per 65536 arena entries, amortized across every row span the block serves
func (a *arena) grow() {
	if a.bumpBlk >= 0 {
		rem := int32(arenaBlockSize) - a.bumpOff
		off := a.bumpOff
		// Span sizes are powers of two >= 1<<arenaMinClass, so bumpOff —
		// and hence rem — is always a multiple of the minimum span size and
		// decomposes exactly, largest piece first.
		for c := int8(arenaBlockShift - 1); c >= arenaMinClass; c-- {
			if size := rowCap(c); rem >= size {
				a.freeSpan(a.bumpBlk, off, c)
				off += size
				rem -= size
			}
		}
	}
	a.raters = append(a.raters, make([]int32, arenaBlockSize))
	a.total = append(a.total, make([]int32, arenaBlockSize))
	a.pos = append(a.pos, make([]int32, arenaBlockSize))
	a.neg = append(a.neg, make([]int32, arenaBlockSize))
	a.bumpBlk = int32(len(a.raters) - 1)
	a.bumpOff = 0
}

// growDedicated appends a block of exactly 1<<class entries for a span too
// large to carve from a standard block, and returns it as the span.
//
//colsim:coldpath a row outgrowing a whole standard block is a once-per-run event on sparse workloads; the block recycles through its class free list afterwards
func (a *arena) growDedicated(class int8) (blk, off int32) {
	size := int(rowCap(class))
	a.raters = append(a.raters, make([]int32, size))
	a.total = append(a.total, make([]int32, size))
	a.pos = append(a.pos, make([]int32, size))
	a.neg = append(a.neg, make([]int32, size))
	return int32(len(a.raters) - 1), 0
}

// copySpan copies the first n entries of all four columns from the src
// span to the dst span.
func (a *arena) copySpan(dstBlk, dstOff, srcBlk, srcOff, n int32) {
	db, do, sb, so := int(dstBlk), int(dstOff), int(srcBlk), int(srcOff)
	copy(a.raters[db][do:do+int(n)], a.raters[sb][so:so+int(n)])
	copy(a.total[db][do:do+int(n)], a.total[sb][so:so+int(n)])
	copy(a.pos[db][do:do+int(n)], a.pos[sb][so:so+int(n)])
	copy(a.neg[db][do:do+int(n)], a.neg[sb][so:so+int(n)])
}

// spanViews returns the four column views over a full span of the given
// capacity; callers slice down to the live length themselves.
func (a *arena) spanViews(r rowRef, length int32) (rs, tot, pos, neg []int32) {
	b, lo, hi := int(r.blk), r.off, r.off+length
	return a.raters[b][lo:hi], a.total[b][lo:hi], a.pos[b][lo:hi], a.neg[b][lo:hi]
}
