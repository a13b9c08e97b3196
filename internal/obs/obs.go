// Package obs is the deterministic observability layer: structured run
// tracing, detector decision audits, and a metrics registry unifying the
// cost meter with gauges and log-bucketed histograms.
//
// Determinism is the design constraint everything else bends around. The
// seeded simulation trees must replay bit-identically from a single seed,
// so trace events are stamped with the simulation cycle — never the wall
// clock — and every event attribute is encoded by hand into a canonical
// JSONL form (fixed key order, strconv float formatting, no map
// iteration), so a seeded run produces a byte-identical trace.jsonl on
// every replay and for every worker count. Wall-clock profiling lives in
// the explicitly-unseeded internal/obs/prof subpackage, which the
// colsimlint determinism analyzer exempts.
//
// A disabled tracer (nil, or no sink) is free: Enabled reports false
// without allocation, and every emit helper is a nil-safe no-op, so the
// detector hot path pays nothing when tracing is off (pinned by
// TestTracingOffAddsNoAllocs).
package obs

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"strconv"
	"sync"
)

// Attr is one typed event attribute. The concrete payload is stored in a
// discriminated field rather than an interface so building an attribute
// never allocates.
type Attr struct {
	Key  string
	kind byte
	i    int64
	f    float64
	s    string
}

// Attribute kind tags.
const (
	kindInt byte = iota
	kindFloat
	kindStr
	kindBool
)

// Int returns an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, i: int64(v)} }

// I64 returns a 64-bit integer attribute.
func I64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float returns a float attribute, encoded with strconv 'g' shortest form
// so the byte representation is canonical.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, f: v} }

// Str returns a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, s: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	var i int64
	if v {
		i = 1
	}
	return Attr{Key: key, kind: kindBool, i: i}
}

// Sink receives encoded trace output. WriteTrace is handed one or more
// complete, newline-terminated JSONL event lines; the slice is reused by
// the caller and must not be retained.
type Sink interface {
	WriteTrace(p []byte) error
	Close() error
}

// BufferSink collects trace lines in memory; Tracer.Fork uses it for the
// per-run buffers that make parallel runs byte-identical to sequential
// ones.
type BufferSink struct {
	buf bytes.Buffer
}

// WriteTrace implements Sink. Writes to a bytes.Buffer cannot fail.
func (s *BufferSink) WriteTrace(p []byte) error {
	s.buf.Write(p)
	return nil
}

// Close implements Sink.
func (s *BufferSink) Close() error { return nil }

// Bytes returns the collected trace.
func (s *BufferSink) Bytes() []byte { return s.buf.Bytes() }

// FileSink writes buffered JSONL to a file; Close flushes and closes it.
type FileSink struct {
	f  *os.File
	bw *bufio.Writer
}

// NewFileSink creates (truncating) the file at path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileSink{f: f, bw: bufio.NewWriter(f)}, nil
}

// WriteTrace implements Sink.
func (s *FileSink) WriteTrace(p []byte) error {
	_, err := s.bw.Write(p)
	return err
}

// Close flushes the buffer and closes the file, returning the first error.
func (s *FileSink) Close() error {
	ferr := s.bw.Flush()
	cerr := s.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Tracer emits structured, cycle-stamped events to a sink. A nil Tracer
// (or one with a nil sink) is a valid disabled tracer: every method is a
// no-op. The first sink error is latched; subsequent emits are dropped and
// Err/Close surface the error to the run's caller, so trace loss is never
// silent.
type Tracer struct {
	mu      sync.Mutex
	sink    Sink
	cycle   int64
	err     error
	scratch []byte
}

// NewTracer returns a tracer writing to sink. A nil sink yields a disabled
// tracer.
func NewTracer(sink Sink) *Tracer { return &Tracer{sink: sink} }

// Enabled reports whether events will be recorded. It is nil-safe and
// allocation-free, so hot paths can guard audit work with it.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// SetCycle stamps subsequent events with the given 1-based simulation
// cycle. Events emitted outside any cycle (run setup, final summaries)
// carry the last value set, initially zero.
func (t *Tracer) SetCycle(cycle int) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	t.cycle = int64(cycle)
	t.mu.Unlock()
}

// Emit records one event of the given type. Attributes are encoded in
// argument order after the fixed "cycle" and "type" keys, giving every
// event a canonical byte representation.
func (t *Tracer) Emit(typ string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b := t.scratch[:0]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendInt(b, t.cycle, 10)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, typ)
	for _, a := range attrs {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		switch a.kind {
		case kindInt:
			b = strconv.AppendInt(b, a.i, 10)
		case kindFloat:
			b = appendJSONFloat(b, a.f)
		case kindStr:
			b = appendJSONString(b, a.s)
		case kindBool:
			if a.i != 0 {
				b = append(b, "true"...)
			} else {
				b = append(b, "false"...)
			}
		}
	}
	b = append(b, '}', '\n')
	t.scratch = b
	if err := t.sink.WriteTrace(b); err != nil {
		t.err = err
	}
}

// Err returns the first sink error encountered, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close closes the sink and returns the latched emit error, or the close
// error if emission was clean.
func (t *Tracer) Close() error {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cerr := t.sink.Close()
	if t.err != nil {
		return t.err
	}
	return cerr
}

// Fork returns n child tracers, each buffering into its own BufferSink, so
// independent runs (or figure cells) can trace concurrently; Join flushes
// the buffers into the parent in index order, making the combined trace
// byte-identical for every worker count. On a disabled tracer the children
// are nil (disabled) tracers.
func (t *Tracer) Fork(n int) []*Tracer {
	kids := make([]*Tracer, n)
	if !t.Enabled() {
		return kids
	}
	for i := range kids {
		kids[i] = NewTracer(&BufferSink{})
	}
	return kids
}

// Join appends each child's buffered trace to the parent sink in slice
// order and propagates the first child (or parent sink) error. Children
// produced by Fork on a disabled tracer are skipped.
func (t *Tracer) Join(kids []*Tracer) error {
	if !t.Enabled() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range kids {
		if k == nil {
			continue
		}
		k.mu.Lock()
		kerr := k.err
		var data []byte
		if buf, ok := k.sink.(*BufferSink); ok {
			data = buf.Bytes()
		}
		k.mu.Unlock()
		if kerr != nil && t.err == nil {
			t.err = kerr
		}
		if t.err == nil && len(data) > 0 {
			if err := t.sink.WriteTrace(data); err != nil {
				t.err = err
			}
		}
	}
	return t.err
}

// TimerFunc starts a measurement and returns the function that stops it.
// The simulator calls it around each detection pass when one is
// configured; implementations that read the wall clock live in
// internal/obs/prof, outside the seeded trees.
type TimerFunc func() (stop func())

// appendJSONFloat encodes f in the shortest round-trippable decimal form.
// JSON has no Inf/NaN literals; they are encoded as strings.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		b = append(b, '"')
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
		return append(b, '"')
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// appendJSONString encodes s as a JSON string, escaping quotes,
// backslashes and control characters. Event types and keys are ASCII
// identifiers, so the fast path is a plain copy.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}
