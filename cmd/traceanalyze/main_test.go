package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	collusion "github.com/p2psim/collusion"
	"github.com/p2psim/collusion/internal/trace"
)

// writeTestTrace generates a small Overstock-style trace CSV.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	cfg := collusion.DefaultOverstockConfig()
	cfg.Users = 300
	cfg.OrganicTransactions = 1000
	cfg.ColludingPairs = 4
	cfg.ChainUsers = 1
	tr, err := collusion.GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReport(t *testing.T) {
	path := writeTestTrace(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", path, "-mutual"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{
		"suspicious pairs",
		"interaction graph",
		"structure is pairwise (C5 holds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunDOTExport(t *testing.T) {
	path := writeTestTrace(t)
	dotPath := filepath.Join(t.TempDir(), "g.dot")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", path, "-mutual", "-dot", dotPath}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "graph interactions {") {
		t.Fatalf("DOT file malformed: %q", data[:30])
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, &out); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent/file.csv"}, &out, &out); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}, &out, &out); err == nil {
		t.Error("malformed trace accepted")
	}
}

func TestRunJSONLInput(t *testing.T) {
	cfg := collusion.DefaultOverstockConfig()
	cfg.Users = 200
	cfg.OrganicTransactions = 500
	cfg.ColludingPairs = 3
	cfg.ChainUsers = 0
	tr, err := collusion.GenerateOverstock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSONL(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", path, "-mutual"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "suspicious pairs") {
		t.Fatalf("report missing analysis:\n%s", stdout.String())
	}
}

// TestRunReplayDetects pins the replay section on a hand-built trace.
// Nodes 0 and 1 rate each other 25 times at score 5, and node 2 rates
// each of them 5 times at score 1. The pair is frequent (N = 25 >= T_N =
// 20) and mutually positive (a = 1 >= T_a = 0.8), and nobody else praises
// either side (b = 0 < T_b = 0.2), so the default Formula (2) detector
// reports exactly that pair.
func TestRunReplayDetects(t *testing.T) {
	tr := &trace.Trace{}
	for day := 0; day < 25; day++ {
		tr.Ratings = append(tr.Ratings,
			trace.Rating{Day: day, Rater: 0, Target: 1, Score: 5},
			trace.Rating{Day: day, Rater: 1, Target: 0, Score: 5})
		if day < 5 {
			tr.Ratings = append(tr.Ratings,
				trace.Rating{Day: day, Rater: 2, Target: 0, Score: 1},
				trace.Rating{Day: day, Rater: 2, Target: 1, Score: 1})
		}
	}
	path := filepath.Join(t.TempDir(), "pair.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want := "\nreplay: ledger over 3 nodes, 1 detected pairs\n" +
		"  (0, 1)  N=25/25  a=1.000/1.000\n"
	if !strings.HasSuffix(stdout.String(), want) {
		t.Fatalf("replay section wrong, want suffix %q:\n%s", want, stdout.String())
	}
}

// writeSpanTimeline writes a small hand-built span timeline with known
// inclusive/self cost structure: run(20) > cycle(20) > [ingest(5),
// detect(12)], so cycle self cost is 3 and run self cost is 0.
func writeSpanTimeline(t *testing.T) string {
	t.Helper()
	lines := []string{
		`{"cycle":0,"type":"span_begin","id":1,"parent":0,"name":"run","seed":1}`,
		`{"cycle":1,"type":"span_begin","id":2,"parent":1,"name":"cycle"}`,
		`{"cycle":1,"type":"span_begin","id":3,"parent":2,"name":"ingest"}`,
		`{"cycle":1,"type":"span_end","id":3,"name":"ingest","cost":5,"records":40}`,
		`{"cycle":1,"type":"span_begin","id":4,"parent":2,"name":"detect"}`,
		`{"cycle":1,"type":"span_end","id":4,"name":"detect","cost":12,"pairs":2}`,
		`{"cycle":1,"type":"span_end","id":2,"name":"cycle","cost":20}`,
		`{"cycle":1,"type":"span_end","id":1,"name":"run","cost":20}`,
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpansSubcommand pins the fold: per-phase counts, inclusive cost,
// self cost (children subtracted), and summed payload attributes.
func TestSpansSubcommand(t *testing.T) {
	path := writeSpanTimeline(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"spans", "-in", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "span timeline: 8 events, 4 phases, 1 cycles") {
		t.Fatalf("header wrong:\n%s", out)
	}
	for _, want := range []struct{ phase, cost, self, attrs string }{
		{"detect", "12", "12", "pairs=2"},
		{"ingest", "5", "5", "records=40"},
		{"cycle", "20", "3", ""},
		// The run span's seed attr rides span_begin; the table sums only
		// span_end payloads (quantities a phase produced), so run has none.
		{"run", "20", "0", ""},
	} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[0] == want.phase {
				found = true
				if f[1] != "1" || f[2] != want.cost || f[3] != want.self {
					t.Errorf("phase %s folded wrong: %q", want.phase, line)
				}
				if want.attrs != "" && !strings.Contains(line, want.attrs) {
					t.Errorf("phase %s missing attrs %q: %q", want.phase, want.attrs, line)
				}
			}
		}
		if !found {
			t.Errorf("phase %s missing from table:\n%s", want.phase, out)
		}
	}
	if strings.Contains(out, "never closed") {
		t.Fatalf("balanced timeline reported as truncated:\n%s", out)
	}
}

// TestSpansSubcommandTruncatedWarns pins the open-span warning on a
// timeline cut off mid-run.
func TestSpansSubcommandTruncatedWarns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	content := `{"cycle":0,"type":"span_begin","id":1,"parent":0,"name":"run"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"spans", "-in", path}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "warning: 1 spans never closed") {
		t.Fatalf("truncated timeline not flagged:\n%s", stdout.String())
	}
}

// TestSpansSubcommandErrors pins argument and input validation.
func TestSpansSubcommandErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"spans"}, &stdout, &stderr); err == nil {
		t.Error("spans without -in accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"spans", "-in", bad}, &stdout, &stderr); err == nil {
		t.Error("malformed timeline accepted")
	}
}
