package core

import (
	"fmt"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

func TestNewManagerRingValidation(t *testing.T) {
	th := DefaultThresholds()
	if _, err := NewManagerRing(0, 10, th, nil); err == nil {
		t.Error("zero managers accepted")
	}
	if _, err := NewManagerRing(3, 0, th, nil); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := NewManagerRing(3, 10, Thresholds{TN: 0, Ta: 0.8, Tb: 0.2}, nil); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestManagerResponsibilityPartition(t *testing.T) {
	mr, err := NewManagerRing(5, 100, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Managers() != 5 {
		t.Fatalf("managers = %d, want 5", mr.Managers())
	}
	// Every rated node has exactly one manager.
	seen := map[int]string{}
	for i := 0; i < 100; i++ {
		name, err := mr.ManagerOf(i)
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = name
	}
	if len(seen) != 100 {
		t.Fatalf("only %d nodes assigned", len(seen))
	}
	if _, err := mr.ManagerOf(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := mr.ManagerOf(100); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestRecordValidation(t *testing.T) {
	mr, err := NewManagerRing(3, 10, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mr.Record(0, 0, 1); err == nil {
		t.Error("self-rating accepted")
	}
	if err := mr.Record(-1, 2, 1); err == nil {
		t.Error("negative rater accepted")
	}
	if err := mr.Record(0, 99, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if err := mr.Record(0, 1, 5); err == nil {
		t.Error("bad polarity accepted")
	}
	if err := mr.Record(0, 1, 1); err != nil {
		t.Errorf("valid rating rejected: %v", err)
	}
}

// collusionWorkload builds a ±1 workload with planted pairs on both a
// central ledger and a manager ring, identically.
func collusionWorkload(t *testing.T, mr *ManagerRing, n int) *reputation.Ledger {
	t.Helper()
	l := reputation.NewLedger(n)
	record := func(rater, target, pol int) {
		l.Record(rater, target, pol)
		if err := mr.Record(rater, target, pol); err != nil {
			t.Fatal(err)
		}
	}
	// Planted colluders: (1,2) and (5,6).
	for _, p := range [][2]int{{1, 2}, {5, 6}} {
		for k := 0; k < 25; k++ {
			record(p[0], p[1], 1)
			record(p[1], p[0], 1)
		}
		for k := 0; k < 8; k++ {
			record(10+k%4, p[0], -1)
			record(10+k%4, p[1], -1)
		}
	}
	// Organic positives for everyone else.
	r := rng.New(11)
	for k := 0; k < n*20; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j || j == 1 || j == 2 || j == 5 || j == 6 {
			continue
		}
		record(i, j, 1)
	}
	return l
}

// TestDecentralizedMatchesCentralized pins the distributed protocol to the
// centralized detectors. Trial 0 is the planted 24-node workload; then 400
// random rating streams (n = 8–60, neutral ratings, planted pairs and an
// a–b–c chain for the association sweep) run on 1, 3 or 7 managers with
// T_R = 0 on half, random valid thresholds on half and StrictReverse on a
// fifth. Each stream reaches one ring by Record and a second by
// RecordLedger; managers then crash one at a time down to one, each crash
// followed by one more rating, and finally both rings reset and reload the
// stream. At every step both kinds of ring Detect must report the pairs,
// evidence and flags Basic/Optimized.Detect report on one ledger holding
// every rating.
func TestDecentralizedMatchesCentralized(t *testing.T) {
	const n = 24
	for _, kind := range []Kind{KindBasic, KindOptimized} {
		mr, err := NewManagerRing(4, n, DefaultThresholds(), nil)
		if err != nil {
			t.Fatal(err)
		}
		l := collusionWorkload(t, mr, n)

		var central Result
		if kind == KindBasic {
			central = NewBasic(DefaultThresholds()).Detect(l)
		} else {
			central = NewOptimized(DefaultThresholds()).Detect(l)
		}
		distributed := mr.Detect(kind)

		if len(central.Pairs) != len(distributed.Pairs) {
			t.Fatalf("%v: central %d pairs, distributed %d",
				kind, len(central.Pairs), len(distributed.Pairs))
		}
		for i := range central.Pairs {
			c, d := central.Pairs[i], distributed.Pairs[i]
			if c.I != d.I || c.J != d.J {
				t.Fatalf("%v: pair %d differs: %+v vs %+v", kind, i, c, d)
			}
		}
		if !distributed.HasPair(1, 2) || !distributed.HasPair(5, 6) {
			t.Fatalf("%v: planted pairs missed: %+v", kind, distributed.Pairs)
		}
	}

	r := rng.New(2012).Child("decentralized-equivalence")
	for trial := 1; trial <= 400; trial++ {
		n := r.IntRange(8, 60)
		th := DefaultThresholds()
		if r.Bool(0.5) {
			th.TR = float64(r.IntRange(1, 3))
			th.TN = r.IntRange(1, 25)
			th.Ta = 0.5 + 0.5*r.Float64()
			th.Tb = th.Ta * r.Float64()
		}
		if r.Bool(0.5) {
			th.TR = 0
		}
		th.StrictReverse = r.Bool(0.2)
		managers := []int{1, 3, 7}[r.Intn(3)]
		checkDecentralizedStream(t, r, fmt.Sprintf("trial %d (n=%d, %d managers, %+v)", trial, n, managers, th),
			n, managers, th, randomRatingStream(r, n))
	}
}

// streamRating is one rating of a generated stream.
type streamRating struct{ rater, target, polarity int }

// randomRatingStream generates a shuffled rating stream over n nodes:
// organic traffic with negative and neutral ratings, one to four planted
// mutual floods, and an a–b–c chain that drives the association sweep.
func randomRatingStream(r *rng.Rand, n int) []streamRating {
	var s []streamRating
	add := func(rater, target, polarity int) {
		s = append(s, streamRating{rater, target, polarity})
	}
	for k := 0; k < n*8; k++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		pol := 1
		switch u := r.Float64(); {
		case u < 0.3:
			pol = -1
		case u < 0.4:
			pol = 0
		}
		add(i, j, pol)
	}
	for p := r.IntRange(1, 4); p > 0; p-- {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		for k := r.IntRange(20, 35); k > 0; k-- {
			add(a, b, 1)
			add(b, a, 1)
		}
	}
	a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
	if a != b && b != c && a != c {
		for k := 0; k < 25; k++ {
			add(a, b, 1)
			add(b, a, 1)
			add(b, c, 1)
			add(c, b, 1)
		}
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// checkDecentralizedStream feeds one stream to a ring by Record and to a
// second by RecordLedger, crashes managers down to one (one more rating
// after each crash), then resets both rings and reloads the stream,
// comparing both rings' Detect of either kind against the centralized
// detectors on the same ledger at every step.
func checkDecentralizedStream(t *testing.T, r *rng.Rand, tag string, n, managers int, th Thresholds, stream []streamRating) {
	t.Helper()
	byRecord, err := NewManagerRing(managers, n, th, nil)
	if err != nil {
		t.Fatal(err)
	}
	byLedger, err := NewManagerRing(managers, n, th, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := reputation.NewLedger(n)
	record := func(mr *ManagerRing, s streamRating) {
		if err := mr.Record(s.rater, s.target, s.polarity); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	load := func() {
		for _, s := range stream {
			l.Record(s.rater, s.target, s.polarity)
			record(byRecord, s)
		}
		if err := byLedger.RecordLedger(l); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	check := func(step string) {
		t.Helper()
		basic, optimized := NewBasic(th).Detect(l), NewOptimized(th).Detect(l)
		for _, mr := range []*ManagerRing{byRecord, byLedger} {
			where := fmt.Sprintf("%s, %s, %d managers", tag, step, mr.Managers())
			compareResults(t, where+", basic", mr.Detect(KindBasic), basic)
			compareResults(t, where+", optimized", mr.Detect(KindOptimized), optimized)
		}
	}
	load()
	check("loaded")

	names := make([]string, managers)
	for k := range names {
		names[k] = fmt.Sprintf("manager-%d", k)
	}
	for len(names) > 1 {
		k := r.Intn(len(names))
		for _, mr := range []*ManagerRing{byRecord, byLedger} {
			if err := mr.FailManager(names[k]); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
		names = append(names[:k], names[k+1:]...)
		s := streamRating{rater: r.Intn(n), target: r.Intn(n), polarity: r.IntRange(-1, 1)}
		if s.rater == s.target {
			s.target = (s.target + 1) % n
		}
		l.Record(s.rater, s.target, s.polarity)
		record(byRecord, s)
		record(byLedger, s)
		check("after crash")
	}

	byRecord.ResetPeriod()
	byLedger.ResetPeriod()
	l = reputation.NewLedger(n)
	load()
	check("reloaded after reset")
}

func TestDecentralizedSingleManagerDegeneratesToCentral(t *testing.T) {
	const n = 16
	mr, err := NewManagerRing(1, n, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := collusionWorkload(t, mr, n)
	central := NewOptimized(DefaultThresholds()).Detect(l)
	distributed := mr.Detect(KindOptimized)
	if len(central.Pairs) != len(distributed.Pairs) {
		t.Fatalf("single-manager mismatch: %d vs %d", len(central.Pairs), len(distributed.Pairs))
	}
}

func TestRecordLedgerEquivalentToRecord(t *testing.T) {
	const n = 16
	mrA, err := NewManagerRing(3, n, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l := collusionWorkload(t, mrA, n)

	mrB, err := NewManagerRing(3, n, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mrB.RecordLedger(l); err != nil {
		t.Fatal(err)
	}
	ra := mrA.Detect(KindOptimized)
	rb := mrB.Detect(KindOptimized)
	if len(ra.Pairs) != len(rb.Pairs) {
		t.Fatalf("bulk load diverged: %d vs %d pairs", len(ra.Pairs), len(rb.Pairs))
	}
	for i := range ra.Pairs {
		if ra.Pairs[i] != rb.Pairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, ra.Pairs[i], rb.Pairs[i])
		}
	}
	if err := mrB.RecordLedger(reputation.NewLedger(5)); err == nil {
		t.Error("size-mismatched ledger accepted")
	}
}

func TestCrossManagerMessagesCounted(t *testing.T) {
	// With many managers, the two colluders almost surely live on
	// different managers; detection must then exchange messages.
	var meter metrics.CostMeter
	const n = 24
	mr, err := NewManagerRing(8, n, DefaultThresholds(), &meter)
	if err != nil {
		t.Fatal(err)
	}
	collusionWorkload(t, mr, n)
	meter.Reset() // ignore rating-routing hops
	res := mr.Detect(KindOptimized)
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs detected")
	}
	m1, _ := mr.ManagerOf(1)
	m2, _ := mr.ManagerOf(2)
	if m1 != m2 && meter.Get(metrics.CostManagerMessage) == 0 {
		t.Fatal("cross-manager detection exchanged no messages")
	}
}

func TestResetPeriodClearsState(t *testing.T) {
	const n = 16
	mr, err := NewManagerRing(3, n, DefaultThresholds(), nil)
	if err != nil {
		t.Fatal(err)
	}
	collusionWorkload(t, mr, n)
	mr.ResetPeriod()
	if res := mr.Detect(KindOptimized); len(res.Pairs) != 0 {
		t.Fatalf("detection after reset found %d pairs", len(res.Pairs))
	}
}

func TestKindString(t *testing.T) {
	if KindBasic.String() != "unoptimized" || KindOptimized.String() != "optimized" {
		t.Fatal("Kind strings wrong")
	}
}

func BenchmarkDecentralizedDetect(b *testing.B) {
	const n = 100
	mr, err := NewManagerRing(8, n, DefaultThresholds(), nil)
	if err != nil {
		b.Fatal(err)
	}
	l := benchLedger(n)
	if err := mr.RecordLedger(l); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr.Detect(KindOptimized)
	}
}
