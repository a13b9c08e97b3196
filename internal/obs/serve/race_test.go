package serve

import (
	"io"
	"net/http"
	"sync"
	"testing"

	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/simulator"
)

// TestConcurrentScrapeDuringRun is the telemetry race hammer: a windowed
// simulation records into the registry while scraper
// goroutines hammer WritePrometheus and Snapshot/Diff, plus one client
// scraping the HTTP endpoints — the exact concurrency a live -telemetry-addr
// run exposes. The CI race job runs this package under -race, which is
// where the test earns its keep; the assertions only guard basic sanity.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	var meter metrics.CostMeter
	reg := obs.NewRegistry(&meter)
	s := startServer(t, Options{Registry: reg, Hub: NewHub(reg, 0)})

	cfg := simulator.DefaultConfig()
	cfg.Overlay.Nodes = 60
	cfg.SimCycles = 8
	cfg.QueryCycles = 10
	cfg.Pretrusted = nil
	cfg.Colluders = []int{0, 1, 2, 3, 4, 5, 6, 7}
	cfg.ColluderGoodProb = 0.2
	cfg.Detector = simulator.DetectorOptimized
	cfg.WindowCycles = 3
	cfg.Meter = &meter
	cfg.Obs = reg

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *obs.RegistrySnapshot
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				cur := reg.Snapshot()
				cur.Diff(prev)
				prev = cur
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/healthz"} {
				resp, err := http.Get("http://" + s.Addr() + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}
	}()

	if _, err := simulator.Run(cfg); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()

	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("run recorded nothing: %+v", snap)
	}
}
