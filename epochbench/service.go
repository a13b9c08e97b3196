package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/obs/serve"
	"github.com/p2psim/collusion/internal/service"
	"github.com/p2psim/collusion/internal/service/httpapi"
	"github.com/p2psim/collusion/internal/simulator"
)

// newStore builds a service.Store the way colsim -serve does: engine and
// detector from the simulator builders, with a cost meter and registry
// attached. Knobs the benchmark leaves at their defaults are not named,
// so removing one does not break the benchmark.
func newStore(w workload) (*service.Store, *metrics.CostMeter, *obs.Registry, error) {
	cfg, meter, reg := w.instrumented()
	st, err := service.New(service.Config{
		Nodes:        cfg.Overlay.Nodes,
		Engine:       simulator.BuildEngine(cfg),
		Detector:     simulator.BuildPairDetector(cfg),
		Thresholds:   cfg.DetectionThresholds(),
		WindowCycles: cfg.WindowCycles,
		Obs:          reg,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return st, meter, reg, nil
}

// served is one store with its HTTP API on a loopback listener, through
// serve.Start and httpapi.New as colsim -serve mounts them.
type served struct {
	w     workload
	store *service.Store
	meter *metrics.CostMeter
	reg   *obs.Registry
	srv   *serve.Server
	base  string
	// ingest is the ingest client's connection; queries use their own.
	ingest *http.Client
}

func startServed(w workload) (*served, error) {
	st, meter, reg, err := newStore(w)
	if err != nil {
		return nil, err
	}
	srv, err := serve.Start(serve.Options{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Version:  "epochbench",
		API:      httpapi.New(st, reg),
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &served{
		w: w, store: st, meter: meter, reg: reg, srv: srv,
		base:   "http://" + srv.Addr(),
		ingest: oneConnClient(),
	}, nil
}

// oneConnClient returns a client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

func (s *served) close() {
	s.ingest.CloseIdleConnections()
	_ = s.srv.Close()
	s.store.Close()
}

// apply ingests one batch through the workload's ingest path — Store.Apply
// in process, or POST /v1/ratings with the batch's canonical body — and
// returns the new epoch watermark.
func (s *served) apply(batch []ingest.Rating, body []byte) (int64, error) {
	if !s.w.http {
		return s.store.Apply(batch)
	}
	resp, err := s.ingest.Post(s.base+"/v1/ratings", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("POST /v1/ratings: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /v1/ratings: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var reply struct {
		Epoch    int64 `json:"epoch"`
		Accepted int   `json:"accepted"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return 0, fmt.Errorf("POST /v1/ratings: %w", err)
	}
	if reply.Accepted != len(batch) {
		return 0, fmt.Errorf("POST /v1/ratings: accepted %d of %d ratings", reply.Accepted, len(batch))
	}
	return reply.Epoch, nil
}

// document returns the store's final flagged document: GET /v1/flagged
// for a workload served over HTTP, the current snapshot's encoding
// otherwise.
func (s *served) document() ([]byte, error) {
	if !s.w.http {
		sn := s.store.Acquire()
		defer sn.Release()
		return service.AppendFlaggedSnapshot(nil, sn), nil
	}
	return get(s.ingest, s.base+"/v1/flagged")
}

func (s *served) counts() counts {
	sn := s.store.Acquire()
	defer sn.Release()
	return snapshotCounts(s.meter, s.reg, sn)
}

// inProcess is a store fed through Store.Apply directly, with no HTTP in
// between: the reference a workload served over HTTP is checked against.
type inProcess struct {
	store *service.Store
	meter *metrics.CostMeter
	reg   *obs.Registry
}

// newInProcess builds a store the way newStore does and applies batches.
func newInProcess(w workload, batches [][]ingest.Rating) (*inProcess, error) {
	st, meter, reg, err := newStore(w)
	if err != nil {
		return nil, err
	}
	p := &inProcess{store: st, meter: meter, reg: reg}
	for _, b := range batches {
		if _, err := st.Apply(b); err != nil {
			st.Close()
			return nil, err
		}
	}
	return p, nil
}

// document returns the store's final flagged document and counts.
func (p *inProcess) document() ([]byte, counts) {
	sn := p.store.Acquire()
	defer sn.Release()
	return service.AppendFlaggedSnapshot(nil, sn), snapshotCounts(p.meter, p.reg, sn)
}

// snapshotCounts returns the deterministic counts of a store whose meter
// and registry are given, at its snapshot sn.
func snapshotCounts(m *metrics.CostMeter, reg *obs.Registry, sn *service.Snapshot) counts {
	return countsOf(m, reg, sn.Ledger(), sn.Ratings(), sn.Flagged(), len(sn.Pairs()))
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// queryStats is the open-loop query client's record.
type queryStats struct {
	latency   sample // ms until each reply (see runQueries)
	lag       sample // ms each query was sent after it was due
	attempted int64
	failed    int64
}

// runQueries is the open-loop query client: on one connection it sends a
// query every 1/rate seconds until stop closes — nine in ten
// GET /v1/reputation/{node}, one in ten GET /v1/suspicion/{node}, nodes
// drawn with the rating skew. A query sent while the previous reply was
// still outstanding is timed from when it was due, so a stall also delays
// the queries queued behind it; a query due on an idle connection is timed
// from when it was sent, so the client's own timer wake-up delay on a
// loaded host (reported as query_lag_ms) is not counted. Non-2xx replies
// and transport errors count as failed.
func runQueries(base string, nodes []int32, rate float64, stop <-chan struct{}) queryStats {
	client := oneConnClient()
	defer client.CloseIdleConnections()
	var qs queryStats
	interval := time.Duration(float64(time.Second) / rate)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	var replied time.Time // when the previous reply arrived
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return qs
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return qs
			default:
			}
		}
		node := strconv.Itoa(int(nodes[i%len(nodes)]))
		url := base + "/v1/reputation/" + node
		if i%10 == 9 {
			url = base + "/v1/suspicion/" + node
		}
		qs.attempted++
		sent := time.Now()
		qs.lag = append(qs.lag, ms(sent.Sub(due)))
		from := sent
		if replied.After(due) {
			from = due
		}
		_, err := get(client, url)
		replied = time.Now()
		if err != nil {
			qs.failed++
			continue
		}
		qs.latency = append(qs.latency, ms(replied.Sub(from)))
	}
}
