package service

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// testStore builds a small store on the cheap summation engine with the
// optimized detector.
func testStore(t testing.TB, n int, cfg Config) *Store {
	t.Helper()
	cfg.Nodes = n
	if cfg.Engine == nil {
		cfg.Engine = reputation.Summation{}
	}
	if cfg.Detector == nil {
		// Light thresholds so small test streams trip detection quickly.
		th := core.Thresholds{TR: 1, TN: 5, Ta: 0.8, Tb: 0.5}
		cfg.Detector = core.NewOptimized(th)
		cfg.Thresholds = th
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// randomBatch fills dst with seeded background traffic plus a planted
// mutual flood between nodes 1 and 2. Background traffic never targets
// the planted pair: organic credit would push their reputations outside
// the Formula (2) collusion bounds and (correctly) suppress detection.
func randomBatch(r *rng.Rand, n, size int, dst []ingest.Rating) []ingest.Rating {
	dst = dst[:0]
	for k := 0; k < size; k++ {
		rater, target := r.Intn(n), r.Intn(n)
		for target == rater || target == 1 || target == 2 {
			target = (target + 1) % n
		}
		pol := int8(1)
		if r.Bool(0.3) {
			pol = -1
		}
		dst = append(dst, ingest.Rating{Rater: int32(rater), Target: int32(target), Polarity: pol})
	}
	dst = append(dst,
		ingest.Rating{Rater: 1, Target: 2, Polarity: 1},
		ingest.Rating{Rater: 2, Target: 1, Polarity: 1})
	return dst
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 10},
		{Nodes: -1, Engine: reputation.Summation{}},
		{Nodes: 10, Engine: reputation.Summation{}, IngestShards: -1},
		{Nodes: 10, Engine: reputation.Summation{}, WindowCycles: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestStoreEpochZero pins the pre-ingest state: a fresh store serves an
// empty epoch-0 snapshot immediately.
func TestStoreEpochZero(t *testing.T) {
	s := testStore(t, 8, Config{})
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 0 || sn.Ratings() != 0 || sn.Nodes() != 8 {
		t.Fatalf("epoch-0 snapshot: epoch=%d ratings=%d nodes=%d", sn.Epoch(), sn.Ratings(), sn.Nodes())
	}
	if len(sn.Pairs()) != 0 || sn.IsFlagged(0) {
		t.Fatal("epoch-0 snapshot carries detection state")
	}
}

func TestValidateBatch(t *testing.T) {
	bad := [][]ingest.Rating{
		{{Rater: -1, Target: 1, Polarity: 1}},
		{{Rater: 0, Target: 8, Polarity: 1}},
		{{Rater: 3, Target: 3, Polarity: 1}},
		{{Rater: 0, Target: 1, Polarity: 2}},
	}
	s := testStore(t, 8, Config{})
	for i, batch := range bad {
		if _, err := s.Apply(batch); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	// Rejected batches must not advance the epoch.
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 0 {
		t.Fatalf("rejected batches advanced epoch to %d", sn.Epoch())
	}
}

// TestStoreDetectsPlantedPair drives enough mutual-flood traffic through
// Apply for the optimized detector to flag the planted pair, and checks
// the snapshot exposes flag, first epoch and evidence consistently.
func TestStoreDetectsPlantedPair(t *testing.T) {
	s := testStore(t, 16, Config{})
	r := rng.New(7).Child("store")
	var batch []ingest.Rating
	for e := 0; e < 10; e++ {
		batch = randomBatch(r, 16, 40, batch)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	sn := s.Acquire()
	defer sn.Release()
	if !sn.IsFlagged(1) || !sn.IsFlagged(2) {
		t.Fatal("planted pair (1,2) not flagged")
	}
	if !sn.HasPair(1, 2) || !sn.HasPair(2, 1) {
		t.Fatal("planted pair missing from evidence")
	}
	if sn.FirstFlagged(1) == 0 || sn.FirstFlagged(1) > sn.Epoch() {
		t.Fatalf("first-flagged epoch %d out of range (epoch %d)", sn.FirstFlagged(1), sn.Epoch())
	}
	if sn.Score(1) != 0 || sn.Score(2) != 0 {
		t.Fatal("flagged nodes keep nonzero scores")
	}
}

func TestStoreClose(t *testing.T) {
	s := testStore(t, 8, Config{})
	if _, err := s.Apply([]ingest.Rating{{Rater: 0, Target: 1, Polarity: 1}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Apply([]ingest.Rating{{Rater: 0, Target: 1, Polarity: 1}}); err != ErrClosed {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	// The final snapshot stays acquirable after Close.
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != 1 {
		t.Fatalf("post-Close snapshot epoch %d, want 1", sn.Epoch())
	}
}

// TestStoreConcurrentClose closes each of many stores from several
// goroutines released at once: every Close must return, none may panic
// on a double close of the quit channel, and the store must refuse
// Apply afterwards.
func TestStoreConcurrentClose(t *testing.T) {
	const (
		stores  = 500
		closers = 8
	)
	for k := 0; k < stores; k++ {
		s, err := New(Config{Nodes: 4, Engine: reputation.Summation{}})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < closers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				s.Close()
			}()
		}
		close(start)
		wg.Wait()
		if _, err := s.Apply(nil); err != ErrClosed {
			t.Fatalf("store %d: Apply after concurrent Close: %v, want ErrClosed", k, err)
		}
	}
}

// TestSnapshotRecycling pins the COW plane's memory story: with readers
// promptly releasing, the set of live snapshot pointers stabilizes at the
// pool size — the writer keeps refilling recycled storage instead of
// allocating fresh snapshots every epoch.
func TestSnapshotRecycling(t *testing.T) {
	s := testStore(t, 16, Config{SnapshotPool: 2})
	r := rng.New(11).Child("recycle")
	seen := make(map[*Snapshot]struct{})
	var batch []ingest.Rating
	// Warm-up: let the pool populate.
	for e := 0; e < 4; e++ {
		batch = randomBatch(r, 16, 30, batch)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 40; e++ {
		batch = randomBatch(r, 16, 30, batch)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
		sn := s.Acquire()
		seen[sn] = struct{}{}
		sn.Release()
	}
	// Pool of 2 plus the published snapshot and at most one in flight.
	if len(seen) > 4 {
		t.Fatalf("%d distinct snapshots across 40 epochs, want <= 4 (recycling broken)", len(seen))
	}
	if s.mRecycled.Value() == 0 && s.cfg.Obs != nil {
		t.Fatal("no snapshots recycled")
	}
}

// TestAcquireNeverResurrects hammers the acquire/release/publish triangle
// under -race: readers must only ever pin snapshots whose storage is not
// being refilled, and every pinned snapshot must be internally consistent
// (scores sized to the population, epoch monotonically advancing per
// reader).
func TestAcquireNeverResurrects(t *testing.T) {
	const (
		nodes   = 24
		epochs  = 150
		readers = 4
	)
	s := testStore(t, nodes, Config{SnapshotPool: 2})
	var stop atomic.Bool
	var acquired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for !stop.Load() {
				sn := s.Acquire()
				if sn.Epoch() < last {
					t.Errorf("epoch went backwards: %d after %d", sn.Epoch(), last)
					sn.Release()
					return
				}
				last = sn.Epoch()
				if len(sn.Scores()) != nodes || len(sn.Flagged()) != nodes {
					t.Errorf("torn snapshot at epoch %d", sn.Epoch())
					sn.Release()
					return
				}
				// Touch the ledger too: recycled arena storage must never
				// be visible while pinned.
				_ = sn.Ledger().TotalFor(int(sn.Epoch()) % nodes)
				acquired.Add(1)
				sn.Release()
			}
		}()
	}
	r := rng.New(13).Child("hammer")
	var batch []ingest.Rating
	for e := 0; e < epochs; e++ {
		batch = randomBatch(r, nodes, 25, batch)
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if acquired.Load() == 0 {
		t.Fatal("readers never acquired a snapshot")
	}
	sn := s.Acquire()
	defer sn.Release()
	if sn.Epoch() != epochs {
		t.Fatalf("final epoch %d, want %d", sn.Epoch(), epochs)
	}
}

// TestServiceOffAddsNoAllocs is the regression gate the ISSUE demands:
// with a store built but idle, the repo's detect/ingest hot paths must
// stay exactly as allocation-free as they are without any service in the
// process — the snapshot plane only ever costs on its own epoch
// transitions, never on foreign hot paths.
func TestServiceOffAddsNoAllocs(t *testing.T) {
	const n = 64
	l := reputation.NewLedger(n)
	r := rng.New(5).Child("noalloc")
	for k := 0; k < 4000; k++ {
		rater, target := r.Intn(n), r.Intn(n)
		if rater == target {
			target = (target + 1) % n
		}
		l.Record(rater, target, 1)
	}
	det := core.NewOptimized(core.DefaultThresholds())
	// Steady state: a few passes to let the detector's memo warm up.
	for k := 0; k < 3; k++ {
		det.DetectIncremental(l, l.DirtyTargets())
		l.ClearDirty()
	}

	s := testStore(t, 16, Config{}) // idle resident service in-process
	_ = s

	if allocs := testing.AllocsPerRun(20, func() {
		det.DetectIncremental(l, nil)
	}); allocs > 0 {
		t.Fatalf("steady-state DetectIncremental allocates %v objects/op with idle service, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		l.Record(3, 4, 1)
	}); allocs > 0 {
		t.Fatalf("warm-row Record allocates %v objects/op with idle service, want 0", allocs)
	}
}
