// Package ingest is the rating intake side of the detection plane: the
// compact Rating record every rating stream arrives as — trace replays,
// simulator query cycles, service batches — the bridge from a crawled
// trace to a batch of them, and the WindowLedger that keeps a sliding
// window of rating periods.
//
// A batch reaches the paper's N_(i,j) counts through one path: each
// rating is Record-ed into the period ledger in batch order (internal/epoch
// owns that loop). The WindowLedger keeps a ring of per-cycle CSR deltas
// and maintains the merged sliding window incrementally — add the newest
// delta, subtract the expiring one — in place of the full window re-merge
// sliding-window runs used to pay every cycle. Per-pair counts are
// order-independent sums and row adjacency is kept ascending, so the
// merged window is observationally identical to a from-scratch re-merge.
package ingest

// Rating is one intake record: rater scored target with the paper's
// three-valued polarity (-1, 0, +1). The compact layout keeps
// million-rating replay batches cache-friendly.
type Rating struct {
	Rater, Target int32
	Polarity      int8
}
