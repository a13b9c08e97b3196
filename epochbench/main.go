// Command epochbench is the repository's end-to-end benchmark of the
// resident detection service. One run builds a service.Store the way
// colsim -serve does, sets it up with a seeded workload's history, then
// applies a fixed number of timed epochs through the workload's ingest
// path while an open-loop client queries the HTTP API, and checks the
// final flagged document against a reference fed the same batches.
//
//	epochbench --workload trickle-1m --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// also replays every epoch through the store's public per-phase calls,
// timed from the benchmark, and reports the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it is the full report
// (provenance, deterministic counts, document digest). A correctness
// failure exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	fs := flag.NewFlagSet("epochbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 10, "timed-phase length the epoch count is sized for")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "epochbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "epochbench:", err)
		os.Exit(1)
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "epochbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "epochbench: correctness:", p)
		}
		os.Exit(1)
	}
}

// printResult writes one "name value unit" line per metric — the
// benchmark metrics, then the report's other measurements — the full
// report as a JSON line, and the contract JSON line last.
func printResult(res *result) error {
	printMetrics(res.Metrics)
	printMetrics(res.Extra)
	report, err := json.Marshal(res)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", report, line)
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
