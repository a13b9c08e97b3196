package simulator

import (
	"errors"
	"testing"

	"github.com/p2psim/collusion/internal/ingest"
)

// TestBatchTapDeliversCycleBatches pins the tap's contract: each cycle's
// batch holds exactly the ratings OnRating saw in that cycle, in record
// order, and arrives before that cycle's OnCycle; the first delivery
// error stops further deliveries and is what Err reports; and a tap
// forces averaged runs sequential, so deliveries never interleave.
func TestBatchTapDeliversCycleBatches(t *testing.T) {
	cfg := smallConfig()
	var seen []ingest.Rating // OnRating's feed since the last delivery
	cfg.OnRating = func(rater, target, polarity int) {
		seen = append(seen, ingest.Rating{Rater: int32(rater), Target: int32(target), Polarity: int8(polarity)})
	}
	delivered := 0
	cfg.OnCycle = func(cycle int, _ []float64) {
		if cycle <= 3 && delivered != cycle {
			t.Fatalf("OnCycle(%d) fired after %d deliveries", cycle, delivered)
		}
	}
	stop := errors.New("stop")
	tap := NewBatchTap(&cfg, func(cycle int, batch []ingest.Rating) error {
		delivered++
		if cycle != delivered || len(batch) == 0 || len(batch) != len(seen) {
			t.Fatalf("cycle %d: delivery %d of %d ratings, OnRating saw %d", cycle, delivered, len(batch), len(seen))
		}
		for k := range batch {
			if batch[k] != seen[k] {
				t.Fatalf("cycle %d: rating %d = %+v, OnRating saw %+v", cycle, k, batch[k], seen[k])
			}
		}
		seen = seen[:0]
		if cycle == 3 {
			return stop
		}
		return nil
	})
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if delivered != 3 || !errors.Is(tap.Err(), stop) {
		t.Fatalf("%d deliveries, Err = %v; want 3 and the first delivery error", delivered, tap.Err())
	}

	cfg = smallConfig()
	var cycles []int
	NewBatchTap(&cfg, func(cycle int, _ []ingest.Rating) error {
		cycles = append(cycles, cycle)
		return nil
	})
	const runs = 3
	if _, err := RunAveragedParallel(cfg, runs, 4); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != runs*cfg.SimCycles {
		t.Fatalf("%d deliveries, want %d", len(cycles), runs*cfg.SimCycles)
	}
	for k, c := range cycles {
		if c != k%cfg.SimCycles+1 {
			t.Fatalf("deliveries interleaved: cycles %v", cycles)
		}
	}
}
