// Package experiments regenerates every quantitative figure of the paper's
// evaluation (Figure 1a-d trace analyses, the Formula (2) surface of
// Figure 4, the reputation distributions of Figures 5-11, the
// request-share comparison of Figure 12 and the operation-cost comparison
// of Figure 13). Each driver returns a Table that renders as aligned text
// and can be exported as CSV; cmd/experiments exposes them on the command
// line and bench_test.go wraps each in a testing.B benchmark.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/p2psim/collusion/internal/obs"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the figure identifier, e.g. "fig5".
	ID string
	// Title describes the artifact.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data, one string per column.
	Rows [][]string
	// Notes carries expected-shape commentary printed under the table.
	Notes []string
}

// AddRow appends a row, formatting each value with %v (floats with %.6g).
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", x)
		case float32:
			row[i] = fmt.Sprintf("%.6g", x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) && i != len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	return b.String()
}

// WriteCSV writes the table data (header + rows) to path.
func (t *Table) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiments: write header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: write row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: flush: %w", err)
	}
	return f.Close()
}

// SaveAll renders tables to w and, when dir is non-empty, writes one CSV
// per table into dir.
func SaveAll(w io.Writer, dir string, tables ...*Table) error {
	for _, t := range tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
		if err := t.WriteCSV(filepath.Join(dir, t.ID+".csv")); err != nil {
			return err
		}
	}
	return nil
}

// Options configures experiment execution.
type Options struct {
	// Seed drives every generator and simulation.
	Seed uint64
	// Runs is the number of averaged simulation runs (the paper uses 5).
	Runs int
	// Scale multiplies synthetic-trace volumes; 1.0 reproduces the default
	// laptop-scale population, smaller values speed up tests.
	Scale float64
	// ColluderCounts overrides the x-axis of Figures 12 and 13
	// (default {8, 18, 28, 38, 48, 58}).
	ColluderCounts []int
	// Workers bounds the goroutines used by the parallel experiment
	// engine: averaged runs fan per-run, Figures 8, 12 and 13 fan
	// per-cell, and the EigenTrust engine splits its power iteration.
	// Values <= 1 run sequentially. Every worker count produces
	// byte-identical artifacts: cell RNG seeds derive only from Seed and
	// the cell index, and reductions walk cells in index order.
	Workers int
	// IngestShards is forwarded to every simulation the drivers run: when
	// >= 1 each simulation cycle's ratings flush through the sharded
	// ingest pipeline with this many writer goroutines. Artifacts are
	// byte-identical for every value >= 1 (and for 0 up to the absence of
	// ingest_audit trace events); see simulator.Config.IngestShards.
	IngestShards int
	// Tracer, if enabled, threads the observability run trace through
	// every simulation a driver performs. Cell-parallel figures fork one
	// buffered child tracer per cell and join them in cell order, so the
	// combined trace stays byte-identical for every Workers.
	Tracer *obs.Tracer
	// Obs, if non-nil, collects run histograms (EigenTrust iterations,
	// rating-pair frequencies, DHT lookup hops) across every simulation a
	// driver performs. Runs only record into histograms, which are
	// order-independent, so one registry is safe under cell parallelism.
	Obs *obs.Registry
	// Progress, if non-nil, is forwarded to every simulation a driver
	// performs: one registry-delta line per simulation cycle, a live feed
	// across the whole experiment sweep. Progress serializes internally,
	// so sharing one reporter across concurrent figure cells is safe, but
	// line order then reflects scheduling — a progress stream is a live
	// feed here, not a deterministic artifact. (Span tracers are NOT
	// plumbed through experiments for the same reason taken seriously:
	// a shared open-span stack across concurrent cells would corrupt.)
	Progress *obs.Progress
}

// DefaultOptions mirrors the paper's averaging (5 runs).
func DefaultOptions() Options {
	return Options{Seed: 1, Runs: 5, Scale: 1.0}
}

func (o Options) normalized() Options {
	if o.Runs < 1 {
		o.Runs = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}
