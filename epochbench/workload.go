package main

import (
	"fmt"
	"math"

	"github.com/p2psim/collusion/internal/ingest"
	"github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/obs"
	"github.com/p2psim/collusion/internal/rng"
	"github.com/p2psim/collusion/internal/simulator"
)

// workload is one benchmark input definition. Every timed epoch applies
// one batch of batch ratings; the setup applies the history preload and
// the warm epochs before timing starts.
type workload struct {
	name   string
	nodes  int
	window int // sliding-window epochs; 0 keeps the cumulative ledger
	engine simulator.EngineKind

	preload       int // history ratings applied in setup
	preloadApply  int // Apply calls the preload is split into
	warm          int // epochs applied in setup after the preload
	batch         int // ratings per epoch
	colluderShare float64

	// http routes ingest through POST /v1/ratings instead of Store.Apply.
	http bool
	// queryRate is the open-loop query client's rate in queries per second.
	queryRate float64
	// epochsPerSecond sizes the timed phase: a run applies
	// max(minTimedEpochs, round(seconds*epochsPerSecond)) epochs, a number
	// fixed by the workload and --seconds alone, so two runs of one seed
	// apply the same epochs. The rates are set so the timed phase lasts
	// about --seconds on a 2-core Xeon host.
	epochsPerSecond float64
}

// Generator constants shared by every workload.
const (
	// targetSkew is the exponent of the power law over target ranks: rank
	// r receives a share of background ratings proportional to
	// (r+1)^-targetSkew.
	targetSkew = 0.8
	// collusionRatings is how many positive ratings each member of an
	// active colluding pair sends its partner per epoch (the paper's 10).
	collusionRatings = 10
	// maxCollusionShare caps the share of an epoch's batch that colluding
	// pairs send; when the pairs would exceed it, a round-robin subset of
	// them is active each epoch.
	maxCollusionShare = 0.2
	// honestPositive and colluderPositive are the probabilities that a
	// background rating of an honest node or of a colluder is positive:
	// the paper's normal good-behaviour probability 0.8, and the outside
	// positive share b its trace analysis measured for colluders (about
	// 0.016). A larger share feeds trust into the colluding pairs, where
	// EigenTrust's power iteration then converges slowly for as long as
	// the window holds those ratings, so the epoch cost would swing with
	// which raters happened to rate a colluder.
	honestPositive   = 0.8
	colluderPositive = 0.02
	// populationSeed seeds every workload's fixed population.
	populationSeed = 1
	// minTimedEpochs keeps at least one epoch below the tail percentile,
	// which needs tailBeyond epochs above it.
	minTimedEpochs = tailBeyond + 2
	// heldOutSeed is the seed kept out of tuning: a later performance claim
	// must also hold on it.
	heldOutSeed = 7919
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
// Each loads a different layer of the epoch.
var workloads = []workload{
	// Small epochs over a large state: detect and publish, which scale
	// with the state, carry the epoch; intake barely matters.
	{
		name: "trickle-1m", nodes: 1_000_000, engine: simulator.EngineSummation,
		preload: 3_000_000, preloadApply: 3, warm: 3, batch: 10_000, colluderShare: 0.002,
		queryRate: 20, epochsPerSecond: 3,
	},
	// Large epochs touching most rows: ledger intake carries the epoch.
	{
		name: "burst-100k", nodes: 100_000, engine: simulator.EngineSummation,
		preload: 1_000_000, preloadApply: 1, warm: 2, batch: 200_000, colluderShare: 0.01,
		queryRate: 20, epochsPerSecond: 2.5,
	},
	// A sliding window under EigenTrust: scoring and the window roll carry
	// the epoch.
	{
		name: "window-et-100k", nodes: 100_000, window: 8, engine: simulator.EngineEigenTrust,
		warm: 8, batch: 50_000, colluderShare: 0.002,
		queryRate: 20, epochsPerSecond: 3.5,
	},
	// Ingest and queries over HTTP: the request plane and decode.
	{
		name: "http-10k", nodes: 10_000, engine: simulator.EngineSummation,
		preload: 100_000, preloadApply: 1, warm: 5, batch: 2_000, colluderShare: 0.002,
		http: true, queryRate: 100, epochsPerSecond: 70,
	},
}

// smoke returns the tiny-scale variant of w: about 2k nodes, batches and
// history scaled down alike, and a few epochs, so the whole run takes
// seconds. The engine, window, ingest path and client mix are unchanged.
func (w workload) smoke() workload {
	scale := func(v, floor int) int {
		v = int(float64(v) * 2000 / float64(w.nodes))
		if v < floor {
			return floor
		}
		return v
	}
	w.batch = scale(w.batch, 200)
	w.preload = scale(w.preload, 0)
	w.nodes = 2000
	w.colluderShare = 0.01
	w.queryRate = 200
	w.epochsPerSecond = minTimedEpochs
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// timedEpochs is the number of epochs a run of the given length measures.
func (w workload) timedEpochs(seconds int) int {
	e := int(math.Round(float64(seconds) * w.epochsPerSecond))
	if e < minTimedEpochs {
		e = minTimedEpochs
	}
	return e
}

// historyEpochs is how many batch-sized epochs of the rating stream the
// preload folds together.
func (w workload) historyEpochs() int { return w.preload / w.batch }

// config is the simulator configuration the store is built from: the
// colsim defaults with the workload's population, engine, detector and
// window, and every other knob (IngestShards, Workers, FullDetect) left
// unset.
func (w workload) config() simulator.Config {
	cfg := simulator.DefaultConfig()
	cfg.Overlay.Nodes = w.nodes
	cfg.Engine = w.engine
	cfg.Detector = simulator.DetectorOptimized
	cfg.WindowCycles = w.window
	return cfg
}

// instrumented returns w.config() wired to a fresh cost meter and
// registry, which then hold the run's deterministic counts.
func (w workload) instrumented() (simulator.Config, *metrics.CostMeter, *obs.Registry) {
	meter := &metrics.CostMeter{}
	reg := obs.NewRegistry(meter)
	cfg := w.config()
	cfg.Meter = meter
	cfg.Obs = reg
	return cfg, meter, reg
}

// generator builds a workload's rating stream from a seed. The population
// — which node holds which popularity rank, and which nodes collude in
// which pairs — is fixed per workload, so every seed loads the same
// structure: EigenTrust's convergence, for one, depends strongly on how
// popular the colluding pairs are. The seed draws the rating stream;
// stream epoch k depends only on the seed, the workload and k.
type generator struct {
	w    workload
	seed uint64

	rankNode []int32    // target rank -> node
	colluder []bool     // node -> member of a colluding pair
	pairs    [][2]int32 // colluding pairs
	active   int        // pairs active per epoch
	zipfTop  float64    // (n+1)^(1-targetSkew) - 1
}

func newGenerator(w workload, seed uint64) *generator {
	r := rng.New(populationSeed).Child("population/" + w.name)
	g := &generator{w: w, seed: seed, colluder: make([]bool, w.nodes)}
	perm := r.Perm(w.nodes)
	g.rankNode = make([]int32, w.nodes)
	for i, v := range perm {
		g.rankNode[i] = int32(v)
	}
	// Colluders are drawn from outside the pretrusted nodes {0,1,2} and
	// paired in draw order.
	members := 2 * int(math.Round(w.colluderShare*float64(w.nodes)/2))
	for _, v := range r.Sample(w.nodes-3, members) {
		g.colluder[v+3] = true
	}
	picked := make([]int32, 0, members)
	for _, v := range r.Perm(w.nodes) {
		if g.colluder[v] {
			picked = append(picked, int32(v))
		}
	}
	for i := 0; i+1 < len(picked); i += 2 {
		g.pairs = append(g.pairs, [2]int32{picked[i], picked[i+1]})
	}
	g.active = len(g.pairs)
	if limit := int(maxCollusionShare * float64(w.batch) / (2 * collusionRatings)); g.active > limit {
		g.active = limit
	}
	g.zipfTop = math.Pow(float64(w.nodes+1), 1-targetSkew) - 1
	return g
}

// rank draws a target rank from the power law by inverting its
// continuous CDF over [1, n+1) at u in [0, 1).
func (g *generator) rank(u float64) int {
	x := math.Pow(1+u*g.zipfTop, 1/(1-targetSkew))
	k := int(x) - 1
	if k >= g.w.nodes {
		k = g.w.nodes - 1
	}
	return k
}

// activePairs returns the indices into g.pairs active in stream epoch k.
func (g *generator) activePairs(k int) []int {
	out := make([]int, g.active)
	for j := range out {
		out[j] = (k*g.active + j) % len(g.pairs)
	}
	return out
}

// epoch returns stream epoch k's batch: every active colluding pair
// exchanges collusionRatings positive ratings each way, and the rest of
// the batch is background ratings with power-law targets, uniform raters
// and polarity by target role, shuffled together.
func (g *generator) epoch(k int) []ingest.Rating {
	r := rng.New(g.seed ^ 0x9e3779b97f4a7c15*uint64(k+1)).Child("epoch/" + g.w.name)
	batch := make([]ingest.Rating, 0, g.w.batch)
	for _, p := range g.activePairs(k) {
		a, b := g.pairs[p][0], g.pairs[p][1]
		for c := 0; c < collusionRatings; c++ {
			batch = append(batch,
				ingest.Rating{Rater: a, Target: b, Polarity: 1},
				ingest.Rating{Rater: b, Target: a, Polarity: 1})
		}
	}
	n := g.w.nodes
	for len(batch) < g.w.batch {
		target := g.rankNode[g.rank(r.Float64())]
		rater := int32(r.Intn(n - 1))
		if rater >= target {
			rater++
		}
		p := honestPositive
		if g.colluder[target] {
			p = colluderPositive
		}
		pol := int8(-1)
		if r.Bool(p) {
			pol = 1
		}
		batch = append(batch, ingest.Rating{Rater: rater, Target: target, Polarity: pol})
	}
	r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch
}

// inputs is one run's pre-generated rating stream.
type inputs struct {
	preload [][]ingest.Rating // one batch per preload Apply
	warm    [][]ingest.Rating
	timed   [][]ingest.Rating
}

// generate builds every batch a run applies, before any timing starts.
func (g *generator) generate(timed int) inputs {
	var in inputs
	h := g.w.historyEpochs()
	for a := 0; a < g.w.preloadApply; a++ {
		lo, hi := a*h/g.w.preloadApply, (a+1)*h/g.w.preloadApply
		var chunk []ingest.Rating
		for k := lo; k < hi; k++ {
			chunk = append(chunk, g.epoch(k)...)
		}
		in.preload = append(in.preload, chunk)
	}
	for k := 0; k < g.w.warm; k++ {
		in.warm = append(in.warm, g.epoch(h+k))
	}
	for k := 0; k < timed; k++ {
		in.timed = append(in.timed, g.epoch(h+g.w.warm+k))
	}
	return in
}

// goldenStep is the fractional part of the golden ratio.
const goldenStep = 0.6180339887498949

// queryNodes returns count query targets with the rating skew. The ranks
// step through the rank distribution along a golden-ratio sequence instead
// of being drawn independently, so every seed queries the same mix of
// popularity ranks and the cost of the query mix does not vary from seed
// to seed. The population, and so the node behind each rank, is fixed per
// workload; the seed only chooses where the rank sequence starts.
func (g *generator) queryNodes(count int) []int32 {
	u := rng.New(g.seed).Child("queries/" + g.w.name).Float64()
	out := make([]int32, count)
	for i := range out {
		out[i] = g.rankNode[g.rank(u)]
		if u += goldenStep; u >= 1 {
			u--
		}
	}
	return out
}
