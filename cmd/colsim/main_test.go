package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-nodes", "60", "-cycles", "5", "-colluders", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	for _, want := range []string{"requests:", "final reputations", "operation costs:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunWithDetector(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-nodes", "60", "-cycles", "6", "-colluders", "2",
		"-b", "0.2", "-detector", "optimized"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "[flagged]") {
		t.Fatalf("no flagged nodes in report:\n%s", stdout.String())
	}
}

func TestRunAveragedMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-nodes", "60", "-cycles", "4", "-colluders", "2", "-runs", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "averaged over 2 runs") {
		t.Fatalf("averaged report missing:\n%s", stdout.String())
	}
}

func TestRunRingAndSwarm(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-nodes", "80", "-cycles", "5", "-colluders", "2",
		"-ring", "3", "-swarm", "3", "-detector", "group"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "ring") || !strings.Contains(out, "sybil") {
		t.Fatalf("ring/swarm roles missing from report:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-engine", "magic"},
		{"-detector", "magic"},
		{"-compromised", "-colluders", "2"},
		{"-nodes", "1"},
		{"-unknownflag"},
	}
	for _, args := range cases {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// telemetryArgs is the base seeded scenario the telemetry-flag tests run.
func telemetryArgs(extra ...string) []string {
	base := []string{"-nodes", "60", "-cycles", "6", "-colluders", "8",
		"-b", "0.2", "-detector", "optimized", "-window", "3"}
	return append(base, extra...)
}

// TestRunSpansDeterministic pins the -spans flag end to end: the file is
// written, announced, byte-identical across repeats, and carries every
// cycle's ingest span.
func TestRunSpansDeterministic(t *testing.T) {
	timeline := func() []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		var stdout, stderr bytes.Buffer
		err := run(telemetryArgs("-spans", path), &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stdout.String(), "span timeline written to "+path) {
			t.Fatalf("span output not announced:\n%s", stdout.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := timeline()
	if len(a) == 0 {
		t.Fatal("empty span timeline")
	}
	if !bytes.Equal(a, timeline()) {
		t.Fatal("repeated runs produced different span timelines")
	}
	// Every one of the 6 cycles records ratings, so each ends an ingest span.
	if got := bytes.Count(a, []byte(`"name":"ingest","cost":`)); got != 6 {
		t.Fatalf("timeline has %d ingest spans, want one per cycle (6)", got)
	}
}

// TestRunProgressDeterministic pins the -progress flag: one line per
// cycle, byte-identical across repeats (no wall-clock histograms attach
// without -metrics or -telemetry-addr).
func TestRunProgressDeterministic(t *testing.T) {
	progress := func() []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "progress.jsonl")
		var stdout, stderr bytes.Buffer
		if err := run(telemetryArgs("-progress", path), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := progress()
	if got := bytes.Count(a, []byte("\n")); got != 6 {
		t.Fatalf("progress has %d lines, want one per cycle (6):\n%s", got, a)
	}
	if !bytes.Equal(a, progress()) {
		t.Fatal("repeated runs produced different progress streams")
	}
}

// TestRunTelemetryServer pins the -telemetry-addr wiring: the resolved
// address is announced before the run and the server tears down cleanly
// with a zero linger.
func TestRunTelemetryServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(telemetryArgs("-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "0s"),
		&stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "telemetry listening on 127.0.0.1:") {
		t.Fatalf("listen address not announced:\n%s", stdout.String())
	}
}

// TestReplayOutWriteFailure pins that a -replay-out file whose writes
// fail is reported: replaying to /dev/full (every write fails with
// ENOSPC) must return an error rather than announce the file.
func TestReplayOutWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	reqs := filepath.Join(t.TempDir(), "reqs.jsonl")
	scenario := []string{"-nodes", "60", "-cycles", "3", "-colluders", "2", "-detector", "optimized"}
	var out bytes.Buffer
	if err := run(append([]string{"-serve", "-record-requests", reqs}, scenario...), &out, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run(append([]string{"-replay-requests", reqs, "-replay-out", "/dev/full"}, scenario...), &out, &out)
	if err == nil {
		t.Fatalf("replay to /dev/full succeeded:\n%s", out.String())
	}
	if strings.Contains(out.String(), "replay responses written") {
		t.Fatalf("failed replay announced its output:\n%s", out.String())
	}
}
