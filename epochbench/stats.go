package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	colmetrics "github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/reputation"
)

// tailBeyond is how many samples must lie beyond a reported tail: the
// tail is the highest percentile with at least this many samples above
// it, but at most tailCap. Without the cap, a run of a thousand 15 ms
// epochs reports its 99th percentile, which a few epochs overlapping a
// garbage collection or a host stall set, and which moved by a quarter to
// nearly half between ten-seed sweeps on a 2-core host.
const (
	tailBeyond = 10
	tailCap    = 90
)

// sample is a list of observations, one per epoch or request.
type sample []float64

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// p50 returns the median (the mean of the middle two for an even count).
func (s sample) p50() float64 {
	if len(s) == 0 {
		return 0
	}
	x := s.sorted()
	m := len(x) / 2
	if len(x)%2 == 1 {
		return x[m]
	}
	return (x[m-1] + x[m]) / 2
}

// tail returns the tail value (see tailBeyond) and its percentile, by
// nearest rank. With tailBeyond or fewer samples it returns the maximum
// as the 100th percentile.
func (s sample) tail() (value, percentile float64) {
	x := s.sorted()
	if len(x) == 0 {
		return 0, 100
	}
	if len(x) <= tailBeyond {
		return x[len(x)-1], 100
	}
	k := len(x) - tailBeyond - 1
	if c := (len(x)*tailCap+99)/100 - 1; c < k {
		k = c
	}
	return x[k], 100 * float64(k+1) / float64(len(x))
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the runtime's cumulative heap allocation and CPU
// accounting without stopping the world.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{value(ss[0].Value), value(ss[1].Value), value(ss[2].Value)}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// falling back to the runtime's mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if kb, ok := procField("/proc/self/status", "VmHWM:"); ok {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64); err == nil {
			return v / 1024
		}
	}
	ss := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(ss)
	return float64(ss[0].Value.Uint64()) / (1 << 20)
}

// procField returns the trimmed value of the first "key value" line of a
// /proc file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), true
		}
	}
	return "", false
}

// provenance describes the host and run a report was measured with.
type provenance struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Seed        uint64  `json:"seed"`
	HeldOutSeed uint64  `json:"held_out_seed"`
	Seconds     int     `json:"seconds"`
	Scale       string  `json:"scale"`
	Epochs      int     `json:"timed_epochs"`
	EpochTailP  float64 `json:"epoch_tail_percentile"`
	QueryTailP  float64 `json:"query_tail_percentile"`
	Queries     int     `json:"queries"`
}

func hostProvenance() provenance {
	model, ok := procField("/proc/cpuinfo", "model name")
	if !ok {
		model = "unknown"
	}
	return provenance{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    model,
		HeldOutSeed: heldOutSeed,
	}
}

// counts are the deterministic quantities of a run: a function of the
// workload, the seed and the epoch count alone, identical for the store,
// the traced replica and any repeat run.
type counts struct {
	Ratings     int64 `json:"ratings"`
	FinalNNZ    int64 `json:"final_nnz"`
	Flagged     int   `json:"flagged_nodes"`
	Pairs       int   `json:"evidence_pairs"`
	PairChecks  int64 `json:"pair_checks"`
	BoundChecks int64 `json:"bound_checks"`
	EigenIters  int64 `json:"eigentrust_iterations"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
	WindowDirty int64 `json:"window_dirty_rows"`
}

func countsOf(m *colmetrics.CostMeter, reg *obs.Registry, period *reputation.Ledger, ratings int64, flagged []bool, pairs int) counts {
	c := counts{
		Ratings:     ratings,
		FinalNNZ:    nnz(period),
		Pairs:       pairs,
		PairChecks:  m.Get(colmetrics.CostPairCheck),
		BoundChecks: m.Get(colmetrics.CostBoundCheck),
		EigenIters:  reg.Histogram("eigentrust.iterations").Sum(),
		MemoHits:    reg.Counter("detect.incremental_hits").Value(),
		MemoMisses:  reg.Counter("detect.incremental_misses").Value(),
		WindowDirty: reg.Histogram("window.dirty_rows_per_cycle").Sum(),
	}
	for _, f := range flagged {
		if f {
			c.Flagged++
		}
	}
	return c
}

// nnz counts the ledger's nonzero (target, rater) pairs.
func nnz(l *reputation.Ledger) int64 {
	var t int64
	for i := 0; i < l.Size(); i++ {
		t += int64(len(l.RatersOf(i)))
	}
	return t
}
