package epoch

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/rng"
)

// scripted is a pairwise detector that reports a fixed list of pairs per
// call, in the order given, so the flag book can be tested in isolation.
type scripted struct {
	calls  int
	script [][]core.Evidence
}

func (d *scripted) Detect(*reputation.Ledger) core.Result {
	var res core.Result
	if d.calls < len(d.script) {
		res.Pairs = d.script[d.calls]
	}
	d.calls++
	return res
}

func (d *scripted) DetectAmong(l *reputation.Ledger, _ []int) core.Result { return d.Detect(l) }

func (d *scripted) Name() string { return "scripted" }

// randomBatches draws seeded batches over n nodes.
func randomBatches(seed uint64, n, batches, size int) [][]ingest.Rating {
	r := rng.New(seed).Child("epoch")
	out := make([][]ingest.Rating, batches)
	for b := range out {
		for k := 0; k < size; k++ {
			rater, target := r.Intn(n), r.Intn(n)
			if rater == target {
				target = (target + 1) % n
			}
			pol := int8(1)
			if r.Bool(0.3) {
				pol = -1
			}
			out[b] = append(out[b], ingest.Rating{Rater: int32(rater), Target: int32(target), Polarity: pol})
		}
	}
	return out
}

// requireLedgerHolds checks that l holds exactly the ratings of batches.
func requireLedgerHolds(t *testing.T, label string, l *reputation.Ledger, batches [][]ingest.Rating) {
	t.Helper()
	want := reputation.NewLedger(l.Size())
	for _, b := range batches {
		for _, r := range b {
			want.Record(int(r.Rater), int(r.Target), int(r.Polarity))
		}
	}
	for target := 0; target < l.Size(); target++ {
		got, exp := l.PairCountsOf(target), want.PairCountsOf(target)
		if !reflect.DeepEqual(got.Raters, exp.Raters) || !reflect.DeepEqual(got.Total, exp.Total) ||
			!reflect.DeepEqual(got.Pos, exp.Pos) || !reflect.DeepEqual(got.Neg, exp.Neg) {
			t.Fatalf("%s: ledger row %d = %+v, want %+v", label, target, got, exp)
		}
	}
}

// TestLedgerHoldsThePeriod pins which ratings the one period ledger
// holds: every applied batch when cumulative, the last WindowCycles
// batches when windowed, for direct and sharded intake alike.
func TestLedgerHoldsThePeriod(t *testing.T) {
	const n, window = 24, 3
	batches := randomBatches(3, n, 9, 40)
	for _, shards := range []int{0, 1, 4} {
		cum := New(Config{Nodes: n, Engine: reputation.Summation{}, IngestShards: shards})
		win := New(Config{Nodes: n, Engine: reputation.Summation{}, IngestShards: shards, WindowCycles: window})
		ratings := 0
		for e, b := range batches {
			for _, st := range []*State{cum, win} {
				if err := st.Apply(b); err != nil {
					t.Fatal(err)
				}
			}
			ratings += len(b)
			requireLedgerHolds(t, "cumulative", cum.Ledger(), batches[:e+1])
			requireLedgerHolds(t, "windowed", win.Ledger(), batches[max(0, e+1-window):e+1])
			if cum.Epoch() != int64(e+1) || cum.Ratings() != int64(ratings) {
				t.Fatalf("epoch %d: Epoch() = %d, Ratings() = %d, want %d", e+1, cum.Epoch(), cum.Ratings(), ratings)
			}
			if cum.DeltaRows() != 0 || win.DeltaRows() == 0 {
				t.Fatalf("epoch %d: DeltaRows() = %d cumulative, %d windowed", e+1, cum.DeltaRows(), win.DeltaRows())
			}
		}
		if win.ledger != nil {
			t.Fatal("windowed state keeps a cumulative ledger")
		}
	}
}

// TestFlagBook pins the flag book: pairs sorted by (I, J) whatever order
// the detector reports them in, the first evidence for a pair kept, each
// node's first-flagged epoch recorded once, and flagged nodes scored zero
// at every later epoch.
func TestFlagBook(t *testing.T) {
	ev := func(i, j, nij int) core.Evidence { return core.Evidence{I: i, J: j, NIJ: nij, NJI: nij} }
	det := &scripted{script: [][]core.Evidence{
		{ev(5, 6, 1), ev(1, 2, 1)},
		{ev(1, 2, 9), ev(3, 4, 2)},
		nil,
	}}
	st := New(Config{Nodes: 8, Engine: reputation.Summation{}, Detector: det})
	// Every node receives positive ratings, so unflagged scores are > 0.
	var batch []ingest.Rating
	for target := 0; target < 8; target++ {
		batch = append(batch, ingest.Rating{Rater: int32((target + 1) % 8), Target: int32(target), Polarity: 1})
	}
	for e := 0; e < 3; e++ {
		if err := st.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	st.Flag(7) // a group or Sybil finding after the last Apply
	st.Flag(7)

	want := []core.Evidence{ev(1, 2, 1), ev(3, 4, 2), ev(5, 6, 1)}
	if !reflect.DeepEqual(st.Pairs(), want) {
		t.Fatalf("pairs = %+v, want %+v", st.Pairs(), want)
	}
	first := []int64{0, 1, 1, 2, 2, 1, 1, 3}
	if !reflect.DeepEqual(st.FirstFlagged(), first) {
		t.Fatalf("first-flagged epochs = %v, want %v", st.FirstFlagged(), first)
	}
	for i, f := range st.Flagged() {
		if f != (i != 0) {
			t.Fatalf("node %d flagged = %v", i, f)
		}
		if f && st.Scores()[i] != 0 {
			t.Fatalf("flagged node %d scored %v", i, st.Scores()[i])
		}
	}
	if st.Scores()[0] <= 0 {
		t.Fatalf("unflagged node 0 scored %v, want > 0", st.Scores()[0])
	}
}

// TestApplyTelemetry pins what one Apply emits: events stamped with the
// epoch being applied, the ingest, window.roll and engine spans in that
// order, and one cycle-timer bracket per epoch even with no detector.
func TestApplyTelemetry(t *testing.T) {
	var spans, trace obs.BufferSink
	timed := 0
	st := New(Config{
		Nodes:        10,
		Engine:       reputation.NewEigenTrust(nil),
		IngestShards: 1,
		WindowCycles: 2,
		Tracer:       obs.NewTracer(&trace),
		Spans:        obs.NewSpanTracer(&spans, nil),
		CycleTimer:   func() func() { timed++; return func() {} },
	})
	for _, b := range randomBatches(5, 10, 2, 20) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if timed != 2 {
		t.Fatalf("cycle timer ran %d times over 2 epochs", timed)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`{"cycle":2,"type":"ingest_audit"`)) {
		t.Fatalf("ingest audit not stamped with epoch 2:\n%s", trace.Bytes())
	}
	var names []string
	for _, line := range bytes.Split(bytes.TrimSpace(spans.Bytes()), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"type":"span_begin"`)) || !bytes.Contains(line, []byte(`"cycle":2`)) {
			continue
		}
		for _, name := range []string{"ingest", "window.roll", "eigentrust"} {
			if bytes.Contains(line, []byte(`"name":"`+name+`"`)) {
				names = append(names, name)
			}
		}
	}
	if want := []string{"ingest", "window.roll", "eigentrust"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("epoch 2 spans %v, want %v:\n%s", names, want, spans.Bytes())
	}
	if !bytes.Contains(spans.Bytes(), []byte(`"iterations":`)) {
		t.Fatal("engine span carries no EigenTrust payload")
	}
}

// TestObservePairFrequencies pins the post-run observation: one sample
// per nonzero pair of the period ledger, summing to its ratings.
func TestObservePairFrequencies(t *testing.T) {
	reg := obs.NewRegistry(nil)
	st := New(Config{Nodes: 12, Engine: reputation.Summation{}, WindowCycles: 2, Obs: reg})
	for _, b := range randomBatches(9, 12, 5, 30) {
		if err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	st.ObservePairFrequencies()
	h := reg.Histogram("ratings.pair_frequency")
	var pairs, ratings int64
	l := st.Ledger()
	for target := 0; target < l.Size(); target++ {
		pc := l.PairCountsOf(target)
		pairs += int64(len(pc.Raters))
		for _, c := range pc.Total {
			ratings += int64(c)
		}
	}
	if h.Count() != pairs || h.Sum() != ratings {
		t.Fatalf("pair_frequency count/sum = %d/%d, want %d/%d over the window", h.Count(), h.Sum(), pairs, ratings)
	}
	New(Config{Nodes: 2, Engine: reputation.Summation{}}).ObservePairFrequencies() // no registry: no-op
}
