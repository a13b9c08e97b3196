package simulator

import (
	"github.com/p2psim/collusion/internal/ingest"
)

// A BatchTap is the traffic-source adapter between the seeded simulator
// and the resident detection service: it delivers each simulation cycle's
// ratings as one batch, in record order, right after the cycle's own
// reputation update and detection pass. One delivered batch corresponds
// to exactly one service epoch, which is what makes a served run at epoch
// E byte-comparable to the batch run stopped at cycle E.
//
// The tap reads the batch Run already collects for the cycle, so it
// copies no rating. It leaves the config's OnRating and OnCycle observers
// alone (OnCycle fires after the tap's delivery) and, like them, forces
// RunAveragedParallel sequential.
type BatchTap struct {
	err error
}

// NewBatchTap installs a tap on cfg and returns it. fn receives the
// 1-based simulation cycle and the cycle's ratings in record order; the
// batch slice is reused between cycles, so fn must not retain it past its
// return. The first error fn returns stops further deliveries (later
// cycles still simulate; their batches are dropped) and is reported by
// Err. A config holds one tap: a later NewBatchTap on cfg replaces it.
func NewBatchTap(cfg *Config, fn func(cycle int, batch []ingest.Rating) error) *BatchTap {
	t := &BatchTap{}
	cfg.cycleBatch = func(cycle int, batch []ingest.Rating) {
		if t.err == nil {
			t.err = fn(cycle, batch)
		}
	}
	return t
}

// Err returns the first error a delivery returned, if any.
func (t *BatchTap) Err() error { return t.err }
