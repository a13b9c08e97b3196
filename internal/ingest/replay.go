package ingest

import "github.com/p2psim/collusion/internal/trace"

// Population returns the smallest ledger size able to hold every node in
// the trace: one past the highest rater or target ID.
func Population(tr *trace.Trace) int {
	max := trace.NodeID(-1)
	for _, r := range tr.Ratings {
		if r.Rater > max {
			max = r.Rater
		}
		if r.Target > max {
			max = r.Target
		}
	}
	return int(max) + 1
}

// FromTrace converts a trace's ratings into an intake batch, mapping each
// raw 1..5 score to the paper's three-valued polarity. Self-ratings are
// dropped (Ledger.Record treats them as caller bugs; crawled traces may
// contain them).
func FromTrace(tr *trace.Trace) []Rating {
	batch := make([]Rating, 0, len(tr.Ratings))
	for _, r := range tr.Ratings {
		if r.Rater == r.Target {
			continue
		}
		batch = append(batch, Rating{
			Rater:    int32(r.Rater),
			Target:   int32(r.Target),
			Polarity: int8(r.Score.Polarity()),
		})
	}
	return batch
}
