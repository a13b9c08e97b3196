package dht

import (
	"fmt"
	"sort"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
)

// Node is a Chord participant: an identifier and a finger table.
type Node struct {
	id      ID
	name    string
	fingers []*Node // fingers[k] = successor(id + 2^k)
	succ    *Node
}

// ID returns the node's position on the circle.
func (n *Node) ID() ID { return n.id }

// Name returns the label the node was registered under.
func (n *Node) Name() string { return n.name }

// Successor returns the node's immediate successor on the ring.
func (n *Node) Successor() *Node { return n.succ }

// Ring is an in-process simulation of Chord routing. It is deterministic:
// topology is rebuilt exactly on every join and failure (no probabilistic
// stabilization), while lookups still route through finger tables and
// report their hop counts, preserving the O(log n) message costs a
// deployment would pay. The ring stores nothing: whoever owns a key keeps
// the key's data (core.ManagerRing keeps its managers' rating rows).
//
// Ring is not safe for concurrent mutation; concurrent FindSuccessor calls
// are safe once the topology is built.
type Ring struct {
	space Space
	nodes []*Node // sorted by id
	byID  map[ID]*Node
	meter *metrics.CostMeter
	hops  *obs.Histogram // per-lookup hop counts, when observed
}

// NewRing creates an empty ring over an m-bit space. The meter, if non-nil,
// receives a metrics.CostDHTMessage increment per routing hop.
func NewRing(bits uint, meter *metrics.CostMeter) (*Ring, error) {
	space, err := NewSpace(bits)
	if err != nil {
		return nil, err
	}
	return &Ring{space: space, byID: make(map[ID]*Node), meter: meter}, nil
}

// Space returns the ring's identifier space.
func (r *Ring) Space() Space { return r.space }

// AddNode joins a node whose ID is the hash of name and returns it.
func (r *Ring) AddNode(name string) (*Node, error) {
	return r.addNode(r.space.HashString(name), name)
}

// AddNodeWithID joins a node at an explicit position (useful for tests and
// for reproducing the paper's 4-bit example ring).
func (r *Ring) AddNodeWithID(id ID, name string) (*Node, error) {
	return r.addNode(id&r.space.Mask(), name)
}

func (r *Ring) addNode(id ID, name string) (*Node, error) {
	if _, exists := r.byID[id]; exists {
		return nil, fmt.Errorf("dht: ID collision at %d (node %q)", id, name)
	}
	n := &Node{id: id, name: name}
	r.byID[id] = n
	r.nodes = append(r.nodes, n)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].id < r.nodes[j].id })
	r.rebuild()
	return n, nil
}

// Fail crashes a node: it leaves the ring and its successor owns its keys
// from then on. The ring holds no data to hand off; a caller that keeps
// per-key state recovers it from its own replicas. Returns an error for
// unknown nodes.
func (r *Ring) Fail(id ID) error {
	n, ok := r.byID[id]
	if !ok {
		return fmt.Errorf("dht: no node with ID %d", id)
	}
	delete(r.byID, id)
	for i, node := range r.nodes {
		if node == n {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			break
		}
	}
	r.rebuild()
	return nil
}

// rebuild recomputes successors and finger tables exactly.
func (r *Ring) rebuild() {
	n := len(r.nodes)
	for i, node := range r.nodes {
		node.succ = r.nodes[(i+1)%n]
		if len(node.fingers) != int(r.space.Bits) {
			node.fingers = make([]*Node, r.space.Bits)
		}
		for k := uint(0); k < r.space.Bits; k++ {
			start := r.space.Add(node.id, 1<<k)
			node.fingers[k] = r.successor(start)
		}
	}
}

// successor finds the owner of key by direct inspection of the sorted node
// list. It is the ground truth ownership function; routing must agree.
func (r *Ring) successor(key ID) *Node {
	idx := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].id >= key })
	if idx == len(r.nodes) {
		idx = 0
	}
	return r.nodes[idx]
}

// FindSuccessor routes from start to the owner of key using finger tables,
// returning the owner and the number of hops (messages) taken. If start is
// nil, routing begins at the first node.
func (r *Ring) FindSuccessor(start *Node, key ID) (*Node, int, error) {
	if len(r.nodes) == 0 {
		return nil, 0, fmt.Errorf("dht: ring is empty")
	}
	cur := start
	if cur == nil {
		cur = r.nodes[0]
	}
	hops := 0
	// Bound iterations defensively; correct routing needs at most
	// O(space bits) closest-preceding-finger steps.
	for limit := int(r.space.Bits)*2 + 2; limit > 0; limit-- {
		if cur.succ == cur {
			// Single-node ring owns everything.
			r.observeHops(hops)
			return cur, hops, nil
		}
		if BetweenRightIncl(key, cur.id, cur.succ.id) {
			r.countHop()
			r.observeHops(hops + 1)
			return cur.succ, hops + 1, nil
		}
		next := cur.closestPrecedingFinger(key)
		if next == cur {
			next = cur.succ
		}
		cur = next
		hops++
		r.countHop()
	}
	return nil, hops, fmt.Errorf("dht: routing to key %d did not converge", key)
}

func (r *Ring) countHop() {
	if r.meter != nil {
		r.meter.Inc(metrics.CostDHTMessage)
	}
}

// SetHopObserver registers a histogram that observes the hop count of
// every successfully routed FindSuccessor call. A nil histogram disables
// observation.
func (r *Ring) SetHopObserver(h *obs.Histogram) { r.hops = h }

func (r *Ring) observeHops(n int) {
	if r.hops != nil {
		r.hops.Observe(int64(n))
	}
}

// closestPrecedingFinger returns the finger-table entry most closely
// preceding key, as in the Chord paper.
func (n *Node) closestPrecedingFinger(key ID) *Node {
	for k := len(n.fingers) - 1; k >= 0; k-- {
		f := n.fingers[k]
		if f != nil && Between(f.id, n.id, key) {
			return f
		}
	}
	return n
}

// Owner returns the node responsible for key without counting messages
// (a local oracle; use FindSuccessor for routed access).
func (r *Ring) Owner(key ID) (*Node, error) {
	if len(r.nodes) == 0 {
		return nil, fmt.Errorf("dht: ring is empty")
	}
	return r.successor(key), nil
}
