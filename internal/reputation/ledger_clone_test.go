package reputation

import (
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// cloneLedger returns a deep copy of l in a fresh ledger.
func cloneLedger(l *Ledger) *Ledger {
	c := NewLedger(l.Size())
	l.CloneInto(c)
	return c
}

// TestCloneMidWindowAgainstDense property-tests the snapshot-freeze
// contract: a clone taken mid-window must keep matching the dense
// reference captured at clone time while the original ledger keeps
// rolling — records, merges of period deltas, subtractions of expiring
// periods, even full Resets. Any storage sharing between the clone's
// arena and the original's would surface here as the clone drifting with
// the original's mutations.
func TestCloneMidWindowAgainstDense(t *testing.T) {
	const n = 48
	r := rng.New(7).Child("clone-window")
	src := NewLedger(n)
	dense := newDenseLedger(n)

	record := func(dst *Ledger, dd *denseLedger, count int) {
		for k := 0; k < count; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			pol := r.Intn(3) - 1
			dst.Record(rater, target, pol)
			if dd != nil {
				dd.record(rater, target, pol)
			}
		}
	}

	type frozen struct {
		clone *Ledger
		ref   *denseLedger
		step  string
	}
	var clones []frozen

	// Roll a synthetic window: each period records a delta into the live
	// ledger, clones are taken at varied mid-window points, and between
	// periods the original merges fresh deltas and subtracts expiring ones
	// — the exact mutation mix the WindowLedger drives.
	var periods []*Ledger
	var densePeriods []*denseLedger
	for period := 0; period < 6; period++ {
		delta := NewLedger(n)
		denseDelta := newDenseLedger(n)
		for k := 0; k < 40; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			pol := r.Intn(3) - 1
			delta.Record(rater, target, pol)
			denseDelta.record(rater, target, pol)
			src.Record(rater, target, pol)
			dense.record(rater, target, pol)
		}
		periods = append(periods, delta)
		densePeriods = append(densePeriods, denseDelta)

		// Mid-window freeze: clone now, remember the dense state now.
		clones = append(clones, frozen{clone: cloneLedger(src), ref: dense.clone(), step: "after period"})

		// Retire the oldest period once the window is over capacity.
		if len(periods) > 3 {
			if err := src.Subtract(periods[0]); err != nil {
				t.Fatalf("period %d: Subtract: %v", period, err)
			}
			dense.subtract(densePeriods[0])
			periods = periods[1:]
			densePeriods = densePeriods[1:]
		}
	}

	// The original keeps rolling: more records, then a full Reset — the
	// harshest recycling event, returning every span of src's arena to its
	// free lists.
	record(src, dense, 200)
	src.Reset()
	dense.reset()
	record(src, dense, 120)

	// Every frozen clone must still match the dense state at its freeze
	// point, bit for bit, despite everything the original did since.
	for i, f := range clones {
		checkAgainstDense(t, f.step, f.clone, f.ref)
		got := f.clone.DirtyTargets()
		want := f.ref.dirtyTargets()
		if len(got) != len(want) {
			t.Fatalf("clone %d: dirty set diverged: got %d targets, want %d", i, len(got), len(want))
		}
	}
	checkAgainstDense(t, "original after reset+records", src, dense)
}

// TestCloneIntoRecyclesArena pins the steady-state allocation behavior of
// the snapshot freeze path: repeated CloneInto calls into the same
// destination recycle the destination's arena spans instead of growing
// fresh storage, even as the source mutates (including span size-class
// changes) between freezes.
func TestCloneIntoRecyclesArena(t *testing.T) {
	const n = 64
	r := rng.New(11).Child("clone-recycle")
	src := NewLedger(n)
	dst := NewLedger(n)

	mutate := func(count int) {
		for k := 0; k < count; k++ {
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			src.Record(rater, target, r.Intn(3)-1)
		}
	}

	// Warm both arenas: grow src to its high-water footprint, then freeze
	// it twice so dst's arena reaches the same class population.
	mutate(4000)
	src.CloneInto(dst)
	src.CloneInto(dst)

	// Steady state: shuffling counts around (without growing rows past
	// their existing size classes is not guaranteed, so allow the arena the
	// occasional block) must freeze with (near-)zero allocations.
	allocs := testing.AllocsPerRun(20, func() {
		src.CloneInto(dst)
	})
	if allocs > 1 {
		t.Fatalf("steady-state CloneInto allocated %.1f times per freeze, want <= 1", allocs)
	}

	// And the recycled freeze is still an exact copy.
	dense := newDenseLedger(n)
	for tgt := 0; tgt < n; tgt++ {
		pc := src.PairCountsOf(tgt)
		for k, rater := range pc.Raters {
			for c := int32(0); c < pc.Pos[k]; c++ {
				dense.record(int(rater), tgt, 1)
			}
			for c := int32(0); c < pc.Neg[k]; c++ {
				dense.record(int(rater), tgt, -1)
			}
			for c := int32(0); c < pc.Total[k]-pc.Pos[k]-pc.Neg[k]; c++ {
				dense.record(int(rater), tgt, 0)
			}
		}
	}
	clear(dense.dirty)
	for _, d := range src.DirtyTargets() {
		dense.dirty[d] = true
	}
	checkAgainstDense(t, "recycled freeze", dst, dense)

	// Population mismatch is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatalf("CloneInto across populations did not panic")
		}
	}()
	src.CloneInto(NewLedger(n + 1))
}
