package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"github.com/p2psim/collusion/internal/service"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check runs against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// encodeAll renders a run's batches canonically, for byte comparison.
func encodeAll(in inputs) []byte {
	var buf []byte
	for _, b := range in.all() {
		buf = service.AppendRequestIngest(buf, b)
	}
	return buf
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, w := range workloads {
		w := w.smoke()
		a := encodeAll(newGenerator(w, 1).generate(4))
		b := encodeAll(newGenerator(w, 1).generate(4))
		c := encodeAll(newGenerator(w, 2).generate(4))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different batches on two calls", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same batches", w.name)
		}
	}
}

// TestGeneratorShape checks each full-scale workload's first timed-size
// epoch against its definition: batch size, colluder population and
// collusion ratings, polarity by target role, and the target skew.
func TestGeneratorShape(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 3)
		batch := g.epoch(0)
		if len(batch) != w.batch {
			t.Errorf("%s: batch of %d ratings, want %d", w.name, len(batch), w.batch)
		}
		colluders := 0
		for _, c := range g.colluder {
			if c {
				colluders++
			}
		}
		if want := 2 * int(math.Round(w.colluderShare*float64(w.nodes)/2)); colluders != want || len(g.pairs) != want/2 {
			t.Errorf("%s: %d colluders in %d pairs, want %d", w.name, colluders, len(g.pairs), want)
		}
		rankOf := make([]int, w.nodes)
		for r, v := range g.rankNode {
			rankOf[v] = r
		}
		inPair := map[[2]int32]bool{}
		for _, p := range g.pairs {
			inPair[p], inPair[[2]int32{p[1], p[0]}] = true, true
		}
		top := w.nodes / 100
		var collusion, background, hot int
		var pos, neg [2]int // [honest, colluder] targets
		for _, r := range batch {
			if inPair[[2]int32{r.Rater, r.Target}] && r.Polarity == 1 {
				collusion++
				continue
			}
			background++
			if rankOf[r.Target] < top {
				hot++
			}
			role := 0
			if g.colluder[r.Target] {
				role = 1
			}
			if r.Polarity == 1 {
				pos[role]++
			} else {
				neg[role]++
			}
		}
		// Background ratings between partners are rare but possible; the
		// planted ratings are exactly 2*collusionRatings per active pair.
		if want := g.active * 2 * collusionRatings; collusion < want || collusion > want+5 {
			t.Errorf("%s: %d collusion ratings, want %d", w.name, collusion, want)
		}
		if share := float64(collusion) / float64(len(batch)); share > maxCollusionShare+0.01 {
			t.Errorf("%s: collusion share %.3f above %.2f", w.name, share, maxCollusionShare)
		}
		wantHot := (math.Pow(float64(top+1), 1-targetSkew) - 1) / g.zipfTop
		if got := float64(hot) / float64(background); math.Abs(got-wantHot) > 0.05*wantHot+0.01 {
			t.Errorf("%s: top 1%% of ranks got %.3f of background ratings, want %.3f", w.name, got, wantHot)
		}
		if got := float64(pos[0]) / float64(pos[0]+neg[0]); math.Abs(got-honestPositive) > 0.02 {
			t.Errorf("%s: honest targets rated positively %.3f of the time, want %.2f", w.name, got, honestPositive)
		}
	}
}

// smoke runs one tiny-scale run and fails the test on any error,
// correctness problem or failed operation.
func smoke(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	res, err := run(options{workload: name, seed: seed, seconds: 1, trace: trace, smoke: true})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d trace %v: %v", name, seed, trace, res.Problems)
	}
	if res.Failed != 0 || res.Attempted < 1 || res.Extra["failed_frac"].Value != 0 {
		t.Fatalf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return res
}

func checkMetrics(t *testing.T, name string, got map[string]metric, want []specMetric) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%s: reported %d metrics %v, BENCHMARK.json lists %d", name, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, g.Unit, m.Unit)
		}
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("%s: metric %s = %v", name, m.Name, g.Value)
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced: every
// named metric is reported with its unit, nothing fails, the traced
// phases account for the replica's epoch up to a small residual, and the
// traced run's deterministic counts and document match the untraced run.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		plain := smoke(t, w.name, 1, false)
		checkMetrics(t, w.name, plain.Metrics, spec.EndToEnd)
		traced := smoke(t, w.name, 1, true)
		checkMetrics(t, w.name+" traced", traced.Metrics, spec.PerLayer)

		shares := traced.Extra["residual_share"].Value
		for _, n := range []string{"ingest.intake_share", "ingest.roll_share", "reputation.score_share", "core.detect_share", "service.flag_share", "service.publish_share"} {
			shares += traced.Metrics[n].Value
		}
		if math.Abs(shares-100) > 1e-6 {
			t.Errorf("%s: phase shares and residual sum to %.6f%%, want 100%%", w.name, shares)
		}
		if r := traced.Extra["residual_share"].Value; r > 5 {
			t.Errorf("%s: residual is %.2f%% of the traced epoch time", w.name, r)
		}
		if traced.Counts != plain.Counts || traced.Digest != plain.Digest {
			t.Errorf("%s: traced run counts %+v digest %s, untraced %+v digest %s",
				w.name, traced.Counts, traced.Digest, plain.Counts, plain.Digest)
		}
		if traced.DirtyRows == 0 {
			t.Errorf("%s: traced run recorded no dirty rows", w.name)
		}
	}
}

// TestCountsRepeat checks that the deterministic counts and the document
// digest repeat exactly for one seed and change with the seed.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a := smoke(t, w.name, 5, false)
		b := smoke(t, w.name, 5, false)
		c := smoke(t, w.name, 6, false)
		if a.Counts != b.Counts || a.Digest != b.Digest || a.DirtyRows != b.DirtyRows {
			t.Errorf("%s: seed 5 counts %+v then %+v", w.name, a.Counts, b.Counts)
		}
		if a.Counts == c.Counts || a.Digest == c.Digest {
			t.Errorf("%s: seeds 5 and 6 gave the same counts %+v", w.name, a.Counts)
		}
	}
}
