// Command traceanalyze runs the Section III analyses over a rating-trace
// CSV (as produced by tracegen): the suspicious-pair frequency filter with
// its a/b statistics, and the interaction-graph structure study that
// establishes pairwise collusion (C5). It then replays the trace into a
// rating ledger and reports the pairs the Formula (2) detector flags.
//
// Usage:
//
//	traceanalyze -in trace.csv [-threshold 20] [-mutual] [-dot graph.dot]
//	traceanalyze spans -in spans.jsonl
//
// The `spans` subcommand instead folds a span timeline (as written by
// colsim -spans or streamed from /spans) into a per-phase cost table.
//
// The input format is inferred from the extension: .jsonl is read as JSON
// Lines, anything else as CSV.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	collusion "github.com/p2psim/collusion"
	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
}

// run parses args and writes the analysis report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "spans" {
		return runSpans(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("traceanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input trace CSV (required)")
		threshold = fs.Int("threshold", 20, "pair rating-count threshold (paper: 20/year)")
		mutual    = fs.Bool("mutual", false, "require mutual rating for graph edges")
		dot       = fs.String("dot", "", "write the interaction graph as Graphviz DOT to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	var tr *trace.Trace
	if strings.HasSuffix(*in, ".jsonl") {
		tr, err = trace.ReadJSONL(f)
	} else {
		tr, err = trace.ReadCSV(f)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d ratings, %d raters, %d targets\n",
		tr.Len(), len(tr.Raters()), len(tr.Targets()))

	res := collusion.SuspiciousPairs(tr, *threshold)
	fmt.Fprintf(stdout, "\nsuspicious pairs (>= %d ratings): %d pairs, %d sellers, %d raters\n",
		*threshold, len(res.Pairs), len(res.Sellers), len(res.Raters))
	fmt.Fprintf(stdout, "booster statistics: mean a = %.4f, mean b = %.4f\n", res.MeanA, res.MeanB)
	for i, p := range res.Pairs {
		if i >= 25 {
			fmt.Fprintf(stdout, "  ... %d more\n", len(res.Pairs)-i)
			break
		}
		fmt.Fprintf(stdout, "  rater %-6d -> target %-6d count=%-4d a=%.3f b=%.3f\n",
			p.Rater, p.Target, p.Count, p.A, p.B)
	}

	g := collusion.BuildInteractionGraph(tr, collusion.GraphOptions{
		EdgeThreshold: *threshold,
		RequireMutual: *mutual,
	})
	structure := g.ClassifyStructure()
	fmt.Fprintf(stdout, "\ninteraction graph (edge: >= %d combined ratings, mutual=%v):\n", *threshold, *mutual)
	fmt.Fprintf(stdout, "  nodes=%d edges=%d max_degree=%d\n", len(g.Nodes()), len(g.Edges()), g.MaxDegree())
	fmt.Fprintf(stdout, "  isolated_pairs=%d open_chains=%d closed_groups=%d triangles=%d\n",
		structure.IsolatedPairs, structure.ChainComponents, structure.ClosedGroups, g.Triangles())
	if structure.ClosedGroups == 0 {
		fmt.Fprintln(stdout, "  structure is pairwise (C5 holds: no closed collusion groups)")
	}
	if *dot != "" {
		df, err := os.Create(*dot)
		if err != nil {
			return err
		}
		if err := g.WriteDOT(df); err != nil {
			_ = df.Close() // the write error is the one worth reporting
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote interaction graph to %s (render with: neato -Tsvg %s)\n", *dot, *dot)
	}
	replayDetect(stdout, tr)
	return nil
}

// spanEvent is one span timeline line. Extra payload attributes (records,
// pairs, memo deltas, ...) land in Rest via the custom unmarshaller.
type spanEvent struct {
	Cycle  int64
	Type   string
	ID     int64
	Parent int64
	Name   string
	Cost   int64
	Rest   map[string]int64
}

// fixedSpanKeys are the envelope keys every span event carries; anything
// else numeric is a phase payload attribute worth summing.
var fixedSpanKeys = map[string]bool{
	"cycle": true, "type": true, "id": true, "parent": true,
	"name": true, "cost": true,
}

// parseSpanEvent decodes one JSONL line. Non-numeric extras (the run
// span's engine/detector labels) are skipped — the table sums quantities.
func parseSpanEvent(line []byte) (spanEvent, error) {
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		return spanEvent{}, err
	}
	ev := spanEvent{Rest: make(map[string]int64)}
	num := func(key string) int64 {
		f, _ := raw[key].(float64)
		return int64(f)
	}
	ev.Cycle = num("cycle")
	ev.ID = num("id")
	ev.Parent = num("parent")
	ev.Cost = num("cost")
	ev.Type, _ = raw["type"].(string)
	ev.Name, _ = raw["name"].(string)
	for k, v := range raw {
		if fixedSpanKeys[k] {
			continue
		}
		if f, ok := v.(float64); ok {
			ev.Rest[k] = int64(f)
		}
	}
	return ev, nil
}

// phaseStat accumulates one phase (span name) across the timeline.
type phaseStat struct {
	name  string
	count int
	cost  int64            // inclusive operation cost
	self  int64            // cost minus closed child spans
	attrs map[string]int64 // summed numeric span_end payload attributes
}

// runSpans implements the spans subcommand: fold a span timeline into a
// deterministic per-phase cost table — span counts, inclusive and self
// operation cost, and summed payload quantities.
func runSpans(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceanalyze spans", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input span timeline JSONL (required; colsim -spans output)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	stats := make(map[string]*phaseStat)
	parentOf := make(map[int64]int64) // open span id -> parent id
	childCost := make(map[int64]int64)
	var events, maxCycle int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := parseSpanEvent(line)
		if err != nil {
			return fmt.Errorf("%s: %w", *in, err)
		}
		events++
		if ev.Cycle > maxCycle {
			maxCycle = ev.Cycle
		}
		switch ev.Type {
		case "span_begin":
			parentOf[ev.ID] = ev.Parent
		case "span_end":
			st := stats[ev.Name]
			if st == nil {
				st = &phaseStat{name: ev.Name, attrs: make(map[string]int64)}
				stats[ev.Name] = st
			}
			st.count++
			st.cost += ev.Cost
			st.self += ev.Cost - childCost[ev.ID]
			for k, v := range ev.Rest {
				st.attrs[k] += v
			}
			if parent, ok := parentOf[ev.ID]; ok {
				childCost[parent] += ev.Cost
				delete(parentOf, ev.ID)
			}
			delete(childCost, ev.ID)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}

	phases := make([]*phaseStat, 0, len(stats))
	for _, st := range stats {
		phases = append(phases, st)
	}
	// Self cost descending is the profile reading order; name breaks ties
	// so the table is deterministic.
	sort.Slice(phases, func(i, j int) bool {
		if phases[i].self != phases[j].self {
			return phases[i].self > phases[j].self
		}
		return phases[i].name < phases[j].name
	})
	fmt.Fprintf(stdout, "span timeline: %d events, %d phases, %d cycles\n", events, len(phases), maxCycle)
	fmt.Fprintf(stdout, "%-18s %7s %12s %12s  %s\n", "phase", "count", "cost", "self", "attrs")
	for _, st := range phases {
		keys := make([]string, 0, len(st.attrs))
		for k := range st.attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var attrs []string
		for _, k := range keys {
			attrs = append(attrs, fmt.Sprintf("%s=%d", k, st.attrs[k]))
		}
		fmt.Fprintf(stdout, "%-18s %7d %12d %12d  %s\n",
			st.name, st.count, st.cost, st.self, strings.Join(attrs, " "))
	}
	if open := len(parentOf); open > 0 {
		fmt.Fprintf(stdout, "warning: %d spans never closed (truncated timeline?)\n", open)
	}
	return nil
}

// replayDetect records the whole trace into one ledger, in trace order,
// and runs the Formula (2) detector over the result at the default
// thresholds.
func replayDetect(stdout io.Writer, tr *trace.Trace) {
	ledger := reputation.NewLedger(ingest.Population(tr))
	for _, r := range ingest.FromTrace(tr) {
		ledger.Record(int(r.Rater), int(r.Target), int(r.Polarity))
	}
	res := collusion.NewOptimizedDetector(collusion.DefaultThresholds()).Detect(ledger)
	fmt.Fprintf(stdout, "\nreplay: ledger over %d nodes, %d detected pairs\n",
		ledger.Size(), len(res.Pairs))
	for i, e := range res.Pairs {
		if i >= 25 {
			fmt.Fprintf(stdout, "  ... %d more\n", len(res.Pairs)-i)
			break
		}
		fmt.Fprintf(stdout, "  (%d, %d)  N=%d/%d  a=%.3f/%.3f\n",
			e.I, e.J, e.NIJ, e.NJI, e.AIJ, e.AJI)
	}
}
