// Package httpapi is the detection service's HTTP request plane: a
// net/http handler translating the /v1/ endpoints into service.Store
// operations. It contains no logic of its own — every request decodes
// through the service codec, executes against an Acquire-pinned snapshot
// (or Apply, for ingest), and responds with the codec's deterministic
// JSON line, so an HTTP response body is byte-identical to the same
// operation's line in a request-log replay.
//
// Like internal/obs/serve (which mounts this handler at /v1/), the
// package is wall-clock-exempt under the colsimlint determinism analyzer:
// it times requests into the service.query_ns histogram, operational
// telemetry that never feeds back into detection state. The deterministic
// core it calls into lives in internal/service, which is lint-restricted.
package httpapi

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/service"
)

// maxBody bounds an ingest request body; a batch is one epoch's ratings,
// far below this.
const maxBody = 8 << 20

// API serves the /v1/ endpoints for one store.
type API struct {
	store *service.Store
	// qns is the wall-clock per-request latency histogram
	// (service.query_ns), nil-safe like every registry handle.
	qns *obs.Histogram
	mux *http.ServeMux
}

// New builds the handler. reg may be nil (no request telemetry).
func New(store *service.Store, reg *obs.Registry) *API {
	a := &API{store: store, qns: reg.Histogram("service.query_ns"), mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /v1/ratings", a.ratings)
	a.mux.HandleFunc("GET /v1/reputation/{node}", a.reputation)
	a.mux.HandleFunc("GET /v1/suspicion/{node}", a.suspicion)
	a.mux.HandleFunc("GET /v1/flagged", a.flagged)
	a.mux.HandleFunc("GET /v1/epoch", a.epoch)
	return a
}

// ServeHTTP times the request into service.query_ns and dispatches.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	a.mux.ServeHTTP(w, r)
	a.qns.Observe(time.Since(start).Nanoseconds())
}

// ratings applies one ingest batch as the next epoch. The body is the
// canonical codec request ({"op":"ingest","ratings":[[rater,target,
// polarity],...]}), exactly one JSONL request-log line.
func (a *API) ratings(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	if len(body) > maxBody {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	req, err := service.DecodeRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Op != "ingest" {
		http.Error(w, fmt.Sprintf("op %q not valid for /v1/ratings", req.Op), http.StatusBadRequest)
		return
	}
	batch, err := req.ToBatch(a.store.Nodes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	epoch, err := a.store.Apply(batch)
	switch {
	case errors.Is(err, service.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		// The store rejected the batch itself (one that could wrap a pair
		// counter): the client's to fix, like the codec's rejections.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeLine(w, service.AppendIngestReply(nil, epoch, len(batch)))
}

// node parses and range-checks the {node} path component.
func (a *API) node(w http.ResponseWriter, r *http.Request) (int, bool) {
	node, err := strconv.Atoi(r.PathValue("node"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad node %q", r.PathValue("node")), http.StatusBadRequest)
		return 0, false
	}
	if node < 0 || node >= a.store.Nodes() {
		http.Error(w, fmt.Sprintf("node %d out of range [0,%d)", node, a.store.Nodes()), http.StatusNotFound)
		return 0, false
	}
	return node, true
}

func (a *API) reputation(w http.ResponseWriter, r *http.Request) {
	node, ok := a.node(w, r)
	if !ok {
		return
	}
	sn := a.store.Acquire()
	defer sn.Release()
	writeLine(w, service.AppendReputation(nil, sn, node))
}

func (a *API) suspicion(w http.ResponseWriter, r *http.Request) {
	node, ok := a.node(w, r)
	if !ok {
		return
	}
	sn := a.store.Acquire()
	defer sn.Release()
	writeLine(w, service.AppendSuspicion(nil, sn, a.store.Thresholds(), node))
}

func (a *API) flagged(w http.ResponseWriter, r *http.Request) {
	sn := a.store.Acquire()
	defer sn.Release()
	writeLine(w, service.AppendFlaggedSnapshot(nil, sn))
}

func (a *API) epoch(w http.ResponseWriter, r *http.Request) {
	sn := a.store.Acquire()
	defer sn.Release()
	writeLine(w, service.AppendEpoch(nil, sn))
}

func writeLine(w http.ResponseWriter, line []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(line)
}
