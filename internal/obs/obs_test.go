package obs

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// failSink fails WriteTrace after failAfter successful writes and returns
// closeErr from Close, for exercising the error-latching paths.
type failSink struct {
	failAfter int
	writes    int
	closeErr  error
}

var errSinkBroken = errors.New("sink broken")

func (s *failSink) WriteTrace(p []byte) error {
	s.writes++
	if s.writes > s.failAfter {
		return errSinkBroken
	}
	return nil
}

func (s *failSink) Close() error { return s.closeErr }

// TestEmitCanonicalEncoding pins the exact byte encoding of every
// attribute kind: fixed key order, strconv 'g' floats, string-quoted
// NaN/Inf, escaped strings. Byte-identical traces depend on this.
func TestEmitCanonicalEncoding(t *testing.T) {
	var sink BufferSink
	tr := NewTracer(&sink)
	tr.SetCycle(3)
	tr.Emit("ev",
		Int("i", -5),
		I64("i64", 1<<40),
		Float("f", 0.25),
		Float("nan", math.NaN()),
		Float("inf", math.Inf(1)),
		Str("s", "q\"\\\x01"),
		Bool("yes", true),
		Bool("no", false),
	)
	want := `{"cycle":3,"type":"ev","i":-5,"i64":1099511627776,"f":0.25,` +
		`"nan":"NaN","inf":"+Inf","s":"q\"\\\u0001","yes":true,"no":false}` + "\n"
	if got := string(sink.Bytes()); got != want {
		t.Fatalf("encoding drifted:\n got %q\nwant %q", got, want)
	}
	// The line must round-trip through a standard JSON decoder.
	var m map[string]any
	if err := json.Unmarshal(sink.Bytes(), &m); err != nil {
		t.Fatalf("emitted line is not valid JSON: %v", err)
	}
	if m["type"] != "ev" || m["cycle"] != float64(3) {
		t.Fatalf("decoded event = %v", m)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSetCycleStampsEvents(t *testing.T) {
	var sink BufferSink
	tr := NewTracer(&sink)
	tr.Emit("a")
	tr.SetCycle(7)
	tr.Emit("b")
	lines := strings.Split(strings.TrimSpace(string(sink.Bytes())), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], `{"cycle":0,`) {
		t.Errorf("pre-cycle event = %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], `{"cycle":7,`) {
		t.Errorf("stamped event = %s", lines[1])
	}
}

// TestDisabledTracer proves a nil tracer and a sink-less tracer are valid
// disabled tracers: every method is a safe no-op.
func TestDisabledTracer(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "no-sink": NewTracer(nil)} {
		if tr.Enabled() {
			t.Errorf("%s tracer reports enabled", name)
		}
		tr.SetCycle(5)
		tr.Emit("ev", Int("x", 1))
		tr.PairAudit(PairAudit{Gate: GateFlagged})
		if err := tr.Err(); err != nil {
			t.Errorf("%s tracer Err = %v", name, err)
		}
		if err := tr.Close(); err != nil {
			t.Errorf("%s tracer Close = %v", name, err)
		}
		kids := tr.Fork(3)
		if len(kids) != 3 {
			t.Fatalf("%s tracer Fork returned %d kids", name, len(kids))
		}
		for _, k := range kids {
			if k != nil {
				t.Errorf("%s tracer forked a live child", name)
			}
		}
		if err := tr.Join(kids); err != nil {
			t.Errorf("%s tracer Join = %v", name, err)
		}
	}
}

// TestTracingOffAddsNoAllocs pins the zero-cost claim the detector hot
// path relies on: with tracing off, the Enabled guard plus the skipped
// Emit allocate nothing.
func TestTracingOffAddsNoAllocs(t *testing.T) {
	for name, tr := range map[string]*Tracer{"nil": nil, "no-sink": NewTracer(nil)} {
		allocs := testing.AllocsPerRun(1000, func() {
			if tr.Enabled() {
				tr.Emit("pair_audit", Int("i", 1), Int("j", 2), Str("gate", GateTN))
			}
		})
		if allocs != 0 {
			t.Errorf("%s tracer: %v allocs per guarded emit, want 0", name, allocs)
		}
	}
}

// TestSinkErrorLatched pins the failure contract: the first sink error is
// latched, later emits are dropped without touching the sink, and both
// Err and Close surface the error so trace loss is never silent.
func TestSinkErrorLatched(t *testing.T) {
	sink := &failSink{failAfter: 1}
	tr := NewTracer(sink)
	tr.Emit("ok")
	if err := tr.Err(); err != nil {
		t.Fatalf("healthy emit latched error: %v", err)
	}
	tr.Emit("boom")
	if !errors.Is(tr.Err(), errSinkBroken) {
		t.Fatalf("Err = %v, want %v", tr.Err(), errSinkBroken)
	}
	tr.Emit("dropped")
	if sink.writes != 2 {
		t.Fatalf("sink saw %d writes after latch, want 2", sink.writes)
	}
	if !errors.Is(tr.Close(), errSinkBroken) {
		t.Fatal("Close did not surface the latched emit error")
	}
}

func TestCloseSurfacesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	tr := NewTracer(&failSink{failAfter: 100, closeErr: closeErr})
	tr.Emit("ok")
	if !errors.Is(tr.Close(), closeErr) {
		t.Fatal("clean emission: Close must return the sink close error")
	}
}

// TestForkJoinOrder proves Join assembles child buffers in index order no
// matter the order the children were written, which is what makes
// parallel runs byte-identical to sequential ones.
func TestForkJoinOrder(t *testing.T) {
	var sink BufferSink
	parent := NewTracer(&sink)
	kids := parent.Fork(3)
	for _, k := range []int{2, 0, 1} { // scheduler-shuffled completion order
		kids[k].Emit("run", Int("k", k))
	}
	if err := parent.Join(kids); err != nil {
		t.Fatal(err)
	}
	want := `{"cycle":0,"type":"run","k":0}` + "\n" +
		`{"cycle":0,"type":"run","k":1}` + "\n" +
		`{"cycle":0,"type":"run","k":2}` + "\n"
	if got := string(sink.Bytes()); got != want {
		t.Fatalf("joined trace out of order:\n got %q\nwant %q", got, want)
	}
}

func TestJoinPropagatesChildError(t *testing.T) {
	var sink BufferSink
	parent := NewTracer(&sink)
	bad := NewTracer(&failSink{failAfter: 0})
	bad.Emit("boom")
	if err := parent.Join([]*Tracer{bad, nil}); !errors.Is(err, errSinkBroken) {
		t.Fatalf("Join = %v, want child error %v", err, errSinkBroken)
	}
	if err := parent.Err(); !errors.Is(err, errSinkBroken) {
		t.Fatal("child error not latched on parent")
	}
}

func TestFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(sink)
	tr.Emit("ev", Int("x", 1))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"cycle":0,"type":"ev","x":1}`+"\n" {
		t.Fatalf("file trace = %q", data)
	}
	if _, err := NewFileSink(filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")); err == nil {
		t.Fatal("creating a sink in a missing directory succeeded")
	}
}

// TestPairAuditEvent pins the audit event schema the trail consumers
// (and DESIGN.md) document.
func TestPairAuditEvent(t *testing.T) {
	var sink BufferSink
	tr := NewTracer(&sink)
	tr.SetCycle(4)
	tr.PairAudit(PairAudit{
		Detector: "basic", I: 1, J: 2, Gate: GateFlagged,
		NIJ: 30, NJI: 30, AIJ: 1, AJI: 1,
		NI: 40, NJ: 41, RI: 20, RJ: 19,
		OutPosI: 3, OutTotI: 10, OutPosJ: 4, OutTotJ: 11,
		LoI: 14, HiI: 24, LoJ: 13, HiJ: 23,
	})
	var m map[string]any
	if err := json.Unmarshal(sink.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	wants := map[string]any{
		"cycle": float64(4), "type": "pair_audit", "detector": "basic",
		"i": float64(1), "j": float64(2), "gate": "flagged", "flagged": true,
		"n_ij": float64(30), "a_ij": float64(1), "r_i": float64(20),
		"out_tot_j": float64(11), "lo_i": float64(14), "hi_j": float64(23),
	}
	for k, v := range wants {
		if m[k] != v {
			t.Errorf("pair_audit[%q] = %v, want %v", k, m[k], v)
		}
	}
}
