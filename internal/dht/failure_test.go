package dht

import (
	"fmt"
	"sync"
	"testing"

	"github.com/p2psim/collusion/internal/rng"
)

func buildRing(t *testing.T, n int) *Ring {
	t.Helper()
	r, err := NewRing(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.AddNode(fmt.Sprintf("node-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestFailUnknownNode(t *testing.T) {
	r := buildRing(t, 4)
	if err := r.Fail(999999); err == nil {
		t.Fatal("failing unknown node succeeded")
	}
	// A node fails once; it is unknown from then on.
	id := r.nodes[0].ID()
	if err := r.Fail(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Fail(id); err == nil {
		t.Fatal("double failure accepted")
	}
}

func TestRoutingCorrectAfterFailures(t *testing.T) {
	r := buildRing(t, 32)
	rand := rng.New(9)
	for k := 0; k < 8; k++ {
		if err := r.Fail(r.nodes[rand.Intn(len(r.nodes))].ID()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := ID(rand.Uint64()) & r.Space().Mask()
		want, err := r.Owner(key)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := r.FindSuccessor(nil, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("routing to %d reached %d, want %d", key, got.ID(), want.ID())
		}
	}
}

// Concurrent read-only lookups must be race-free once the topology is
// stable (run under -race).
func TestConcurrentLookups(t *testing.T) {
	r := buildRing(t, 64)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rand := rng.New(seed)
			for i := 0; i < 500; i++ {
				key := r.Space().HashInt(rand.Intn(50))
				got, _, err := r.FindSuccessor(r.nodes[rand.Intn(len(r.nodes))], key)
				if err != nil {
					errs <- err
					return
				}
				if want, _ := r.Owner(key); got != want {
					errs <- fmt.Errorf("lookup of %d reached %s, want %s", key, got.Name(), want.Name())
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkFail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, _ := NewRing(32, nil)
		for j := 0; j < 32; j++ {
			if _, err := r.AddNode(fmt.Sprintf("node-%d", j)); err != nil {
				b.Fatal(err)
			}
		}
		victim := r.nodes[0]
		b.StartTimer()
		if err := r.Fail(victim.ID()); err != nil {
			b.Fatal(err)
		}
	}
}
