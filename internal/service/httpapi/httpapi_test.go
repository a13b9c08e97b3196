package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
	"github.com/p2psim/collusion/internal/service"
)

func testAPI(t *testing.T) (*API, *service.Store, *obs.Registry) {
	t.Helper()
	th := core.Thresholds{TR: 1, TN: 5, Ta: 0.8, Tb: 0.5}
	st, err := service.New(service.Config{
		Nodes:      8,
		Engine:     reputation.Summation{},
		Detector:   core.NewOptimized(th),
		Thresholds: th,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	reg := obs.NewRegistry(nil)
	return New(st, reg), st, reg
}

func do(t *testing.T, a *API, method, path, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	a.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

// TestEndpoints drives the full API surface and pins that HTTP response
// bodies are byte-identical to the replay-mode lines for the same
// operations.
func TestEndpoints(t *testing.T) {
	a, st, reg := testAPI(t)

	code, body := do(t, a, http.MethodGet, "/v1/epoch", "")
	if code != http.StatusOK || body != "{\"epoch\":0,\"ratings\":0,\"nodes\":8}\n" {
		t.Fatalf("GET /v1/epoch: %d %q", code, body)
	}

	ingestBody := `{"op":"ingest","ratings":[[1,2,1],[2,1,1],[0,3,1]]}`
	code, body = do(t, a, http.MethodPost, "/v1/ratings", ingestBody)
	if code != http.StatusOK || body != "{\"epoch\":1,\"accepted\":3}\n" {
		t.Fatalf("POST /v1/ratings: %d %q", code, body)
	}

	code, body = do(t, a, http.MethodGet, "/v1/reputation/3", "")
	if code != http.StatusOK || !strings.Contains(body, `"node":3`) || !strings.Contains(body, `"epoch":1`) {
		t.Fatalf("GET /v1/reputation/3: %d %q", code, body)
	}

	code, body = do(t, a, http.MethodGet, "/v1/suspicion/1", "")
	if code != http.StatusOK || !strings.Contains(body, `"partners":[`) {
		t.Fatalf("GET /v1/suspicion/1: %d %q", code, body)
	}

	code, body = do(t, a, http.MethodGet, "/v1/flagged", "")
	if code != http.StatusOK || !strings.Contains(body, `"pairs":[`) {
		t.Fatalf("GET /v1/flagged: %d %q", code, body)
	}

	// Byte-identity with the replay encoders at the same snapshot.
	sn := st.Acquire()
	defer sn.Release()
	wantFlagged := string(service.AppendFlaggedSnapshot(nil, sn))
	if body != wantFlagged {
		t.Fatalf("HTTP flagged body %q differs from codec line %q", body, wantFlagged)
	}

	if reg.Histogram("service.query_ns").Count() == 0 {
		t.Fatal("service.query_ns histogram never observed")
	}
}

func TestEndpointErrors(t *testing.T) {
	a, st, _ := testAPI(t)
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/v1/reputation/99", "", http.StatusNotFound},
		{http.MethodGet, "/v1/reputation/-1", "", http.StatusNotFound},
		{http.MethodGet, "/v1/reputation/zap", "", http.StatusBadRequest},
		{http.MethodGet, "/v1/suspicion/99", "", http.StatusNotFound},
		{http.MethodPost, "/v1/ratings", `not json`, http.StatusBadRequest},
		{http.MethodPost, "/v1/ratings", `{"op":"epoch"}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/ratings", `{"op":"ingest","ratings":[[0,0,1]]}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/ratings", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/epoch", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		code, body := do(t, a, c.method, c.path, c.body)
		if code != c.want {
			t.Errorf("%s %s: status %d, want %d (%q)", c.method, c.path, code, c.want, body)
		}
	}
	// A valid batch after Close finds the service unavailable; it is not
	// a bad request.
	st.Close()
	if code, body := do(t, a, http.MethodPost, "/v1/ratings", `{"op":"ingest","ratings":[[1,2,1]]}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST /v1/ratings after Close: status %d, want %d (%q)", code, http.StatusServiceUnavailable, body)
	}
}

// TestRejectedIngestAdvancesNoEpoch pins that HTTP-rejected batches leave
// the store untouched.
func TestRejectedIngestAdvancesNoEpoch(t *testing.T) {
	a, st, _ := testAPI(t)
	if code, _ := do(t, a, http.MethodPost, "/v1/ratings", `{"op":"ingest","ratings":[[0,99,1]]}`); code != http.StatusBadRequest {
		t.Fatalf("bad batch status %d", code)
	}
	sn := st.Acquire()
	defer sn.Release()
	if sn.Epoch() != 0 {
		t.Fatalf("rejected ingest advanced epoch to %d", sn.Epoch())
	}
}
