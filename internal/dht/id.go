// Package dht implements the Chord routing substrate of the decentralized
// reputation system in Section IV-A of the paper: reputation managers form
// a Chord ring, and the rating row of node i lives at the owner of its
// hashed ID. The ring follows Stoica et al. (the paper's reference [22]):
// an m-bit circular identifier space, successor ownership, finger tables,
// and iterative O(log n) routing. Routing hops are counted as messages so
// the decentralized detection experiments can report communication cost.
//
// The ring only routes; it stores no data. The paper's Insert(ID_i, r_i),
// a rating routed to node i's manager, is core.ManagerRing.Record, and its
// Insert(j, msg), a manager's request to node j's manager, is a
// FindSuccessor call routed by that ring's detection protocol.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// ID is a point on the Chord identifier circle. Only the low Space.Bits
// bits are meaningful.
type ID uint64

// Space describes an m-bit circular identifier space.
type Space struct {
	Bits uint
}

// NewSpace returns an identifier space with the given number of bits.
// Bits must be in [1, 64].
func NewSpace(bits uint) (Space, error) {
	if bits < 1 || bits > 64 {
		return Space{}, fmt.Errorf("dht: space bits = %d, want 1..64", bits)
	}
	return Space{Bits: bits}, nil
}

// Mask returns the bitmask selecting valid identifier bits.
func (s Space) Mask() ID {
	if s.Bits >= 64 {
		return ^ID(0)
	}
	return ID(1)<<s.Bits - 1
}

// Hash maps an arbitrary byte key onto the circle by truncating its SHA-1
// digest, the consistent-hashing construction referenced by the paper.
func (s Space) Hash(key []byte) ID {
	sum := sha1.Sum(key)
	return ID(binary.BigEndian.Uint64(sum[:8])) & s.Mask()
}

// HashString hashes a string key onto the circle.
func (s Space) HashString(key string) ID { return s.Hash([]byte(key)) }

// HashInt hashes an integer key (e.g. a node ID from the simulator) onto
// the circle.
func (s Space) HashInt(key int) ID {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(key))
	return s.Hash(buf[:])
}

// Add returns (a + d) on the circle.
func (s Space) Add(a ID, d uint64) ID {
	return (a + ID(d)) & s.Mask()
}

// Between reports whether x lies on the open arc (a, b) travelling
// clockwise from a to b. When a == b the arc covers the whole circle
// except a itself.
func Between(x, a, b ID) bool {
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b
}

// BetweenRightIncl reports whether x lies on the half-open arc (a, b]
// clockwise from a. This is the ownership test of Chord: key k belongs to
// successor(k), the first node whose ID equals or follows k.
func BetweenRightIncl(x, a, b ID) bool {
	if x == b {
		return true
	}
	return Between(x, a, b)
}
