package dht

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/rng"
)

func TestNewSpaceValidation(t *testing.T) {
	for _, bits := range []uint{0, 65} {
		if _, err := NewSpace(bits); err == nil {
			t.Errorf("NewSpace(%d) accepted", bits)
		}
	}
	for _, bits := range []uint{1, 4, 32, 64} {
		if _, err := NewSpace(bits); err != nil {
			t.Errorf("NewSpace(%d) rejected: %v", bits, err)
		}
	}
}

func TestSpaceMask(t *testing.T) {
	s, _ := NewSpace(4)
	if s.Mask() != 0xF {
		t.Fatalf("4-bit mask = %x", s.Mask())
	}
	s64, _ := NewSpace(64)
	if s64.Mask() != ^ID(0) {
		t.Fatalf("64-bit mask = %x", s64.Mask())
	}
}

func TestSpaceHashWithinMask(t *testing.T) {
	s, _ := NewSpace(16)
	for i := 0; i < 1000; i++ {
		if id := s.HashInt(i); id > s.Mask() {
			t.Fatalf("HashInt(%d) = %d exceeds mask", i, id)
		}
	}
	if s.HashString("abc") != s.HashString("abc") {
		t.Fatal("HashString not deterministic")
	}
}

func TestSpaceAddWraps(t *testing.T) {
	s, _ := NewSpace(4)
	if got := s.Add(15, 1); got != 0 {
		t.Fatalf("Add(15,1) = %d, want 0", got)
	}
	if got := s.Add(10, 8); got != 2 {
		t.Fatalf("Add(10,8) = %d, want 2", got)
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		x, a, b ID
		want    bool
	}{
		{5, 2, 8, true},
		{2, 2, 8, false},
		{8, 2, 8, false},
		{9, 8, 2, true},  // wraparound
		{1, 8, 2, true},  // wraparound
		{5, 8, 2, false}, // wraparound
		{3, 4, 4, true},  // a == b: full circle except a itself
		{4, 4, 4, false},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Errorf("Between(%d,%d,%d) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestBetweenRightIncl(t *testing.T) {
	if !BetweenRightIncl(8, 2, 8) {
		t.Fatal("(2,8] should contain 8")
	}
	if BetweenRightIncl(2, 2, 8) {
		t.Fatal("(2,8] should not contain 2")
	}
	if !BetweenRightIncl(0, 15, 3) {
		t.Fatal("(15,3] should contain 0")
	}
}

// buildPaperRing reproduces Figure 2: a 4-bit ring with nodes 1, 6, 10, 15.
func buildPaperRing(t *testing.T) *Ring {
	t.Helper()
	r, err := NewRing(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []ID{1, 6, 10, 15} {
		if _, err := r.AddNodeWithID(id, fmt.Sprintf("n%d", id)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestPaperExampleOwnership(t *testing.T) {
	r := buildPaperRing(t)
	// Ownership follows Chord: the owner of key k is the first node with
	// ID >= k, wrapping around the 4-bit circle of Figure 2.
	cases := map[ID]ID{0: 1, 1: 1, 2: 6, 6: 6, 7: 10, 10: 10, 11: 15, 15: 15}
	for key, want := range cases {
		owner, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		if owner.ID() != want {
			t.Errorf("Owner(%d) = %d, want %d", key, owner.ID(), want)
		}
	}
}

func TestRoutingMatchesOwnership(t *testing.T) {
	r := buildPaperRing(t)
	for key := ID(0); key <= 15; key++ {
		owner, _ := r.Owner(key)
		for _, start := range r.nodes {
			got, hops, err := r.FindSuccessor(start, key)
			if err != nil {
				t.Fatalf("FindSuccessor(%v, %d): %v", start.Name(), key, err)
			}
			if got != owner {
				t.Fatalf("routing from %s to key %d reached %d, want %d",
					start.Name(), key, got.ID(), owner.ID())
			}
			if hops > 8 {
				t.Fatalf("routing took %d hops on a 4-node ring", hops)
			}
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	r, _ := NewRing(8, nil)
	n, err := r.AddNodeWithID(42, "only")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []ID{0, 42, 43, 255} {
		owner, hops, err := r.FindSuccessor(nil, key)
		if err != nil {
			t.Fatal(err)
		}
		if owner != n {
			t.Fatalf("single node does not own key %d", key)
		}
		if hops != 0 {
			t.Fatalf("single-node lookup took %d hops", hops)
		}
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r, _ := NewRing(8, nil)
	if _, _, err := r.FindSuccessor(nil, 1); err == nil {
		t.Fatal("FindSuccessor on empty ring succeeded")
	}
	if _, err := r.Owner(1); err == nil {
		t.Fatal("Owner on empty ring succeeded")
	}
	if err := r.Fail(1); err == nil {
		t.Fatal("Fail on empty ring succeeded")
	}
}

func TestIDCollisionRejected(t *testing.T) {
	r, _ := NewRing(8, nil)
	if _, err := r.AddNodeWithID(5, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddNodeWithID(5, "b"); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

// Key ownership moves to a joining node that now succeeds the key, by
// routing as well as by the ownership oracle.
func TestKeyRehomingOnJoin(t *testing.T) {
	r, _ := NewRing(6, nil)
	if _, err := r.AddNodeWithID(50, "a"); err != nil {
		t.Fatal(err)
	}
	// Key 10 is owned by node 50 (only node). After node 20 joins, the
	// owner of key 10 becomes node 20.
	n20, err := r.AddNodeWithID(20, "b")
	if err != nil {
		t.Fatal(err)
	}
	owner, _, err := r.FindSuccessor(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if oracle, _ := r.Owner(10); owner != n20 || oracle != n20 {
		t.Fatalf("key 10 routed to %s, owned by %s, want b", owner.Name(), oracle.Name())
	}
}

// Key ownership passes to the successor of a node that leaves.
func TestKeyRehomingOnLeave(t *testing.T) {
	r, _ := NewRing(6, nil)
	r.AddNodeWithID(20, "a")
	n50, _ := r.AddNodeWithID(50, "b")
	if err := r.Fail(20); err != nil {
		t.Fatal(err)
	}
	owner, _, err := r.FindSuccessor(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if oracle, _ := r.Owner(10); owner != n50 || oracle != n50 {
		t.Fatalf("key 10 routed to %s, owned by %s, want b", owner.Name(), oracle.Name())
	}
}

func TestMessageCounting(t *testing.T) {
	var meter metrics.CostMeter
	r, _ := NewRing(16, &meter)
	for i := 0; i < 32; i++ {
		if _, err := r.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := meter.Get(metrics.CostDHTMessage)
	if _, _, err := r.FindSuccessor(nil, 12345); err != nil {
		t.Fatal(err)
	}
	if meter.Get(metrics.CostDHTMessage) <= before {
		t.Fatal("lookup did not count messages")
	}
}

func TestLogarithmicHops(t *testing.T) {
	r, _ := NewRing(32, nil)
	const n = 256
	for i := 0; i < n; i++ {
		if _, err := r.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rand := rng.New(1)
	maxHops := 0
	total := 0
	const lookups = 500
	for i := 0; i < lookups; i++ {
		key := ID(rand.Uint64()) & r.Space().Mask()
		_, hops, err := r.FindSuccessor(r.nodes[rand.Intn(n)], key)
		if err != nil {
			t.Fatal(err)
		}
		if hops > maxHops {
			maxHops = hops
		}
		total += hops
	}
	// log2(256) = 8; allow generous slack but reject linear behavior.
	if maxHops > 20 {
		t.Fatalf("max hops = %d on a 256-node ring, expected O(log n)", maxHops)
	}
	if avg := float64(total) / lookups; avg > 10 {
		t.Fatalf("average hops = %v, expected around log2(256)/2", avg)
	}
}

// Property: for random topologies and keys, finger routing agrees with
// brute-force successor ownership from every start node.
func TestQuickRoutingAgreesWithBruteForce(t *testing.T) {
	f := func(seed uint64, rawIDs []uint16, rawKeys []uint16) bool {
		if len(rawIDs) == 0 {
			return true
		}
		if len(rawIDs) > 24 {
			rawIDs = rawIDs[:24]
		}
		if len(rawKeys) > 24 {
			rawKeys = rawKeys[:24]
		}
		r, err := NewRing(16, nil)
		if err != nil {
			return false
		}
		for i, raw := range rawIDs {
			// Collisions in the random data are fine; skip them.
			_, _ = r.AddNodeWithID(ID(raw), fmt.Sprintf("n%d", i))
		}
		if len(r.nodes) == 0 {
			return true
		}
		rand := rng.New(seed)
		for _, rawKey := range rawKeys {
			key := ID(rawKey)
			want, _ := r.Owner(key)
			start := r.nodes[rand.Intn(len(r.nodes))]
			got, _, err := r.FindSuccessor(start, key)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every key has exactly one owner and the owners partition the
// key space consistently with node IDs.
func TestQuickOwnershipPartition(t *testing.T) {
	f := func(rawIDs []uint8) bool {
		r, err := NewRing(8, nil)
		if err != nil {
			return false
		}
		for i, raw := range rawIDs {
			_, _ = r.AddNodeWithID(ID(raw), fmt.Sprintf("n%d", i))
		}
		if len(r.nodes) == 0 {
			return true
		}
		counts := map[ID]int{}
		for key := ID(0); key <= 255; key++ {
			owner, err := r.Owner(key)
			if err != nil {
				return false
			}
			counts[owner.ID()]++
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == 256 && len(counts) == len(r.nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindSuccessor256(b *testing.B) {
	r, _ := NewRing(32, nil)
	for i := 0; i < 256; i++ {
		if _, err := r.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	rand := rng.New(1)
	keys := make([]ID, 1024)
	for i := range keys {
		keys[i] = ID(rand.Uint64()) & r.Space().Mask()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.FindSuccessor(nil, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAddNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, _ := NewRing(32, nil)
		for j := 0; j < 64; j++ {
			if _, err := r.AddNode(fmt.Sprintf("node-%d", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
