package overlay

import (
	"testing"
	"testing/quick"

	"github.com/p2psim/collusion/internal/rng"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.InterestCategories = 0 },
		func(c *Config) { c.InterestsPerNode = [2]int{0, 3} },
		func(c *Config) { c.InterestsPerNode = [2]int{4, 2} },
		func(c *Config) { c.InterestsPerNode = [2]int{1, 25} },
		func(c *Config) { c.Capacity = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInterestsWithinBounds(t *testing.T) {
	net, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.cfg
	for node := 0; node < net.Size(); node++ {
		ints := net.interests[node]
		if len(ints) < cfg.InterestsPerNode[0] || len(ints) > cfg.InterestsPerNode[1] {
			t.Fatalf("node %d has %d interests", node, len(ints))
		}
		seen := map[int]bool{}
		for _, c := range ints {
			if c < 0 || c >= cfg.InterestCategories {
				t.Fatalf("node %d has out-of-range interest %d", node, c)
			}
			if seen[c] {
				t.Fatalf("node %d has duplicate interest %d", node, c)
			}
			seen[c] = true
		}
	}
}

func TestClustersConsistentWithInterests(t *testing.T) {
	net, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for cat := 0; cat < net.cfg.InterestCategories; cat++ {
		for _, member := range net.clusters[cat] {
			if !net.HasInterest(member, cat) {
				t.Fatalf("node %d in cluster %d without the interest", member, cat)
			}
		}
	}
	// Converse: each node appears in each of its interest clusters.
	for node := 0; node < net.Size(); node++ {
		for _, cat := range net.interests[node] {
			found := false
			for _, m := range net.clusters[cat] {
				if m == node {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d missing from cluster %d", node, cat)
			}
		}
	}
}

func TestNeighbors(t *testing.T) {
	net, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	node := 0
	cats := net.interests[node]
	nbrs := net.Neighbors(node, cats[0])
	for _, nb := range nbrs {
		if nb == node {
			t.Fatal("node is its own neighbor")
		}
		if !net.HasInterest(nb, cats[0]) {
			t.Fatalf("neighbor %d lacks interest %d", nb, cats[0])
		}
	}
	// A category the node does not hold yields no neighbors.
	for cat := 0; cat < net.cfg.InterestCategories; cat++ {
		if !net.HasInterest(node, cat) {
			if got := net.Neighbors(node, cat); got != nil {
				t.Fatalf("Neighbors for foreign category = %v", got)
			}
			break
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < a.Size(); node++ {
		ia, ib := a.interests[node], b.interests[node]
		if len(ia) != len(ib) {
			t.Fatalf("node %d interest counts differ", node)
		}
		for i := range ia {
			if ia[i] != ib[i] {
				t.Fatalf("node %d interests differ", node)
			}
		}
	}
}

func TestRandomInterestIsOwn(t *testing.T) {
	net, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for node := 0; node < 20; node++ {
		for k := 0; k < 20; k++ {
			cat := net.RandomInterest(node, r)
			if !net.HasInterest(node, cat) {
				t.Fatalf("node %d drew foreign interest %d", node, cat)
			}
		}
	}
}

// Property: cluster membership counts and per-node interest counts agree
// in total for arbitrary seeds.
func TestQuickMembershipConservation(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Nodes = 50
		net, err := New(cfg)
		if err != nil {
			return false
		}
		fromInterests := 0
		for node := 0; node < net.Size(); node++ {
			fromInterests += len(net.interests[node])
		}
		fromClusters := 0
		for cat := 0; cat < cfg.InterestCategories; cat++ {
			fromClusters += len(net.clusters[cat])
		}
		return fromInterests == fromClusters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
