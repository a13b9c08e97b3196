package reputation

import (
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

// bruteRatersOf recomputes target's active-rater list the slow way, straight
// from PairTotal — the definition RatersOf must match.
func bruteRatersOf(l *Ledger, target int) []int32 {
	var out []int32
	for j := 0; j < l.Size(); j++ {
		if l.PairTotal(target, j) > 0 {
			out = append(out, int32(j))
		}
	}
	return out
}

func checkAdjacency(t *testing.T, l *Ledger, step string) {
	t.Helper()
	for target := 0; target < l.Size(); target++ {
		got := l.RatersOf(target)
		want := bruteRatersOf(l, target)
		if len(got) != len(want) {
			t.Fatalf("%s: target %d: RatersOf has %d raters, brute force %d\ngot  %v\nwant %v",
				step, target, len(got), len(want), got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("%s: target %d: RatersOf[%d] = %d, want %d", step, target, k, got[k], want[k])
			}
		}
	}
}

// TestRatersOfMatchesBruteForce drives a ledger (and clones and merge
// targets derived from it) through randomized Record/Merge/Reset/Clone
// sequences and checks after every operation that RatersOf(target) equals a
// brute-force scan of PairTotal.
func TestRatersOfMatchesBruteForce(t *testing.T) {
	const (
		n     = 17
		steps = 2000
	)
	r := rng.New(42).Child("ledger-adjacency")
	l := NewLedger(n)
	// side receives occasional bursts and is merged into l, exercising the
	// sorted-union path with overlapping and disjoint lists.
	side := NewLedger(n)

	polarity := func() int { return r.IntRange(-1, 1) }
	for step := 0; step < steps; step++ {
		switch op := r.Intn(100); {
		case op < 70: // Record into the main ledger
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				continue
			}
			l.Record(rater, target, polarity())
		case op < 85: // Record into the side ledger
			rater := r.Intn(n)
			target := r.Intn(n)
			if rater == target {
				continue
			}
			side.Record(rater, target, polarity())
		case op < 93: // Merge side into main, then clear side
			if err := l.Merge(side); err != nil {
				t.Fatal(err)
			}
			side.Reset()
			checkAdjacency(t, side, "side after Reset")
		case op < 97: // Clone must carry an independent, correct adjacency
			c := cloneLedger(l)
			checkAdjacency(t, c, "clone")
			// Mutating the clone must not leak into the original.
			a, b := r.Intn(n), r.Intn(n)
			if a != b {
				c.Record(a, b, 1)
			}
		default: // Reset the main ledger
			l.Reset()
		}
		checkAdjacency(t, l, "main")
	}
}

func TestRatersOfEmptyAndSingle(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 4; i++ {
		if got := l.RatersOf(i); len(got) != 0 {
			t.Fatalf("empty ledger: RatersOf(%d) = %v", i, got)
		}
	}
	l.Record(2, 1, 1)
	if got := l.RatersOf(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("RatersOf(1) = %v, want [2]", got)
	}
	if got := l.RatersOf(2); len(got) != 0 {
		t.Fatalf("RatersOf(2) = %v, want empty (adjacency is per target, not per rater)", got)
	}
	// Repeat ratings must not duplicate the entry.
	l.Record(2, 1, -1)
	l.Record(2, 1, 0)
	if got := l.RatersOf(1); len(got) != 1 {
		t.Fatalf("repeat ratings duplicated adjacency: %v", got)
	}
	// Insertions keep ascending order.
	l.Record(3, 1, 1)
	l.Record(0, 1, 1)
	got := l.RatersOf(1)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("RatersOf(1) = %v, want [0 2 3]", got)
	}
}

func TestMergeRowUnion(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{nil, nil, nil},
		{[]int32{1, 3}, nil, []int32{1, 3}},
		{nil, []int32{2}, []int32{2}},
		{[]int32{1, 3, 5}, []int32{2, 3, 6}, []int32{1, 2, 3, 5, 6}},
		{[]int32{1, 2}, []int32{1, 2}, []int32{1, 2}},
	}
	for _, c := range cases {
		// Row 0's adjacency is driven through the public API: each listed
		// rater records once about target 0.
		l, other := NewLedger(8), NewLedger(8)
		for _, r := range c.a {
			l.Record(int(r), 0, 1)
		}
		for _, r := range c.b {
			other.Record(int(r), 0, 1)
		}
		if err := l.Merge(other); err != nil {
			t.Fatal(err)
		}
		got := l.RatersOf(0)
		if len(got) != len(c.want) {
			t.Fatalf("Merge(%v, %v) adjacency = %v, want %v", c.a, c.b, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Merge(%v, %v) adjacency = %v, want %v", c.a, c.b, got, c.want)
			}
		}
	}
}
