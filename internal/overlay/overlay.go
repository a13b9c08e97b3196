// Package overlay builds the unstructured, interest-clustered P2P network
// of the paper's evaluation (Section V, "Network model"): a fixed set of
// interest categories, each node holding a few randomly chosen interests,
// and all nodes sharing an interest connected into one cluster. A node
// with m interests belongs to m clusters; queries for a file in an
// interest go to all cluster neighbors.
package overlay

import (
	"fmt"
	"sort"

	"github.com/p2psim/collusion/internal/rng"
)

// Config parameterizes overlay construction.
type Config struct {
	// Seed makes construction reproducible.
	Seed uint64
	// Nodes is the network size (paper: 200).
	Nodes int
	// InterestCategories is the number of interest clusters (paper: 20).
	InterestCategories int
	// InterestsPerNode bounds how many interests each node draws
	// (paper: uniform in [1, 5]).
	InterestsPerNode [2]int
	// Capacity is the number of requests a node can serve simultaneously
	// per query cycle (paper: 50).
	Capacity int
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Nodes:              200,
		InterestCategories: 20,
		InterestsPerNode:   [2]int{1, 5},
		Capacity:           50,
	}
}

// Validate reports the first invalid parameter, if any.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("overlay: Nodes = %d, want >= 2", c.Nodes)
	}
	if c.InterestCategories < 1 {
		return fmt.Errorf("overlay: InterestCategories = %d, want >= 1", c.InterestCategories)
	}
	lo, hi := c.InterestsPerNode[0], c.InterestsPerNode[1]
	if lo < 1 || hi < lo {
		return fmt.Errorf("overlay: InterestsPerNode = [%d,%d], want 1 <= lo <= hi", lo, hi)
	}
	if hi > c.InterestCategories {
		return fmt.Errorf("overlay: up to %d interests per node but only %d categories",
			hi, c.InterestCategories)
	}
	if c.Capacity < 1 {
		return fmt.Errorf("overlay: Capacity = %d, want >= 1", c.Capacity)
	}
	return nil
}

// Network is an immutable interest-clustered overlay.
type Network struct {
	cfg       Config
	interests [][]int // per node, sorted category indices
	clusters  [][]int // per category, sorted member node indices
}

// New builds the overlay.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed).Child("overlay")
	n := &Network{
		cfg:       cfg,
		interests: make([][]int, cfg.Nodes),
		clusters:  make([][]int, cfg.InterestCategories),
	}
	for node := 0; node < cfg.Nodes; node++ {
		k := r.IntRange(cfg.InterestsPerNode[0], cfg.InterestsPerNode[1])
		picks := r.Sample(cfg.InterestCategories, k)
		sort.Ints(picks)
		n.interests[node] = picks
		for _, cat := range picks {
			n.clusters[cat] = append(n.clusters[cat], node)
		}
	}
	return n, nil
}

// Size returns the number of nodes.
func (n *Network) Size() int { return n.cfg.Nodes }

// HasInterest reports whether the node belongs to the category's cluster.
func (n *Network) HasInterest(node, category int) bool {
	for _, c := range n.interests[node] {
		if c == category {
			return true
		}
	}
	return false
}

// Neighbors returns the node's cluster peers for one category: every other
// member of the category's cluster. It returns nil if the node is not in
// the cluster.
func (n *Network) Neighbors(node, category int) []int {
	if !n.HasInterest(node, category) {
		return nil
	}
	members := n.clusters[category]
	out := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m != node {
			out = append(out, m)
		}
	}
	return out
}

// RandomInterest returns one of the node's interests chosen uniformly.
func (n *Network) RandomInterest(node int, r *rng.Rand) int {
	return rng.Pick(r, n.interests[node])
}
