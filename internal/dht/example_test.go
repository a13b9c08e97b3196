package dht_test

import (
	"fmt"

	"github.com/p2psim/collusion/internal/dht"
)

// Example reproduces the paper's Figure 2: a 4-bit Chord ring with nodes
// 1, 6, 10 and 15. Ratings of node 10 belong to the owner of key 10, and
// both Insert(10, r10) and a later query for them route there.
func Example() {
	ring, err := dht.NewRing(4, nil)
	if err != nil {
		panic(err)
	}
	for _, id := range []dht.ID{1, 6, 10, 15} {
		if _, err := ring.AddNodeWithID(id, fmt.Sprintf("n%d", id)); err != nil {
			panic(err)
		}
	}
	owner, _ := ring.Owner(10)
	fmt.Println("owner of key 10:", owner.Name())

	// Route from the first node to the owner of key 10.
	node, hops, err := ring.FindSuccessor(nil, 10)
	if err != nil {
		panic(err)
	}
	fmt.Printf("route to key 10 reaches %s (%d routing hops)\n", node.Name(), hops)

	// Key 11 wraps to the next node on the circle.
	owner11, _ := ring.Owner(11)
	fmt.Println("owner of key 11:", owner11.Name())
	// Output:
	// owner of key 10: n10
	// route to key 10 reaches n10 (2 routing hops)
	// owner of key 11: n15
}
