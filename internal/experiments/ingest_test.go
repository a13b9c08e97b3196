package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestIngestShardsByteIdenticalArtifacts extends the parallel acceptance
// gate to the streaming intake path: a figure run with IngestShards=0
// (direct records), 1 (one ingest writer) and 4 (sharded
// writers) must render byte-identical text and CSV artifacts — the
// sharded pipeline may change how ledgers are built, never what any
// experiment reports.
func TestIngestShardsByteIdenticalArtifacts(t *testing.T) {
	figures := []struct {
		name string
		fn   func(Options) (*Table, error)
	}{
		{"fig5", Fig5},
		{"fig8", Fig8},
		{"fig13", Fig13},
	}
	for _, fig := range figures {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			t.Parallel()
			render := func(shards int) (string, []byte) {
				opts := quickOpts()
				opts.Runs = 2
				opts.IngestShards = shards
				tab, err := fig.fn(opts)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				var buf bytes.Buffer
				if err := tab.Render(&buf); err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				if err := tab.WriteCSV(filepath.Join(dir, tab.ID+".csv")); err != nil {
					t.Fatal(err)
				}
				csv, err := os.ReadFile(filepath.Join(dir, tab.ID+".csv"))
				if err != nil {
					t.Fatal(err)
				}
				return buf.String(), csv
			}
			refText, refCSV := render(0)
			for _, shards := range []int{1, 4} {
				text, csv := render(shards)
				if text != refText {
					t.Errorf("rendered table differs between shards=0 and shards=%d:\n--- shards=0 ---\n%s--- shards=%d ---\n%s",
						shards, refText, shards, text)
				}
				if !bytes.Equal(csv, refCSV) {
					t.Errorf("CSV bytes differ between shards=0 and shards=%d", shards)
				}
			}
		})
	}
}
