package main

import (
	"time"

	"github.com/p2psim/collusion/internal/core"
	"github.com/p2psim/collusion/internal/ingest"
	colmetrics "github.com/p2psim/collusion/internal/metrics"
	"github.com/p2psim/collusion/internal/service"
)

// tracer is the traced run's per-layer recorder. After every store epoch
// it applies the same batch to the replica, which times each phase, and
// samples the decode and query paths the HTTP API runs, each call timed
// from the benchmark.
//
// The replica's epoch is the traced epoch; the untraced epoch it is
// compared with is Store.Apply, timed around the call alone. For an
// in-process workload that is the served store's epoch. A workload served
// over HTTP times a POST round trip instead, so its tracer feeds an
// in-process store beside it and times that store's Apply.
type tracer struct {
	w      workload
	sv     *served
	rep    *replica
	direct *inProcess // HTTP workloads only
	th     core.Thresholds
	nodes  []int32
	next   int
	buf    []byte

	phases                []phases
	pairChecks, bounds    sample
	iters, publish, alloc sample
	decodeUS, suspicionUS sample
	queryNS, applyMS      sample
	dirtyRows             int64
	hits0, misses0        int64
}

func newTracer(w workload, sv *served, g *generator, epochs int) *tracer {
	return &tracer{
		w: w, sv: sv,
		rep:   newReplica(w),
		th:    sv.store.Thresholds(),
		nodes: g.queryNodes(epochs*reputationSamples + 1),
	}
}

// setUp brings the replica, and the in-process store if there is one, to
// the served store's post-set-up state.
func (t *tracer) setUp(in inputs) error {
	history := append(append([][]ingest.Rating(nil), in.preload...), in.warm...)
	for _, b := range history {
		t.dirtyRows += int64(t.rep.apply(b).dirty)
	}
	t.hits0 = t.rep.reg.Counter("detect.incremental_hits").Value()
	t.misses0 = t.rep.reg.Counter("detect.incremental_misses").Value()
	if t.w.http {
		var err error
		t.direct, err = newInProcess(t.w, history)
		return err
	}
	return nil
}

func (t *tracer) close() {
	if t.direct != nil {
		t.direct.store.Close()
	}
}

// epoch records one timed epoch the served store has just applied, whose
// Store.Apply, when timed in process, took storeMS.
func (t *tracer) epoch(batch []ingest.Rating, body []byte, allocBytes, storeMS float64) error {
	if t.direct != nil {
		t0 := time.Now()
		if _, err := t.direct.store.Apply(batch); err != nil {
			return err
		}
		storeMS = ms(time.Since(t0))
	}
	t.applyMS = append(t.applyMS, storeMS)

	m := t.rep.meter
	iters := t.rep.reg.Histogram("eigentrust.iterations")
	pc0, bc0, it0 := m.Get(colmetrics.CostPairCheck), m.Get(colmetrics.CostBoundCheck), iters.Sum()
	p := t.rep.apply(batch)
	t.phases = append(t.phases, p)
	t.dirtyRows += int64(p.dirty)
	t.pairChecks = append(t.pairChecks, float64(m.Get(colmetrics.CostPairCheck)-pc0))
	t.bounds = append(t.bounds, float64(m.Get(colmetrics.CostBoundCheck)-bc0))
	t.iters = append(t.iters, float64(iters.Sum()-it0))
	t.publish = append(t.publish, float64(publishBytes(t.w.nodes, int(nnz(t.rep.period())), len(t.rep.pairs))))
	t.alloc = append(t.alloc, allocBytes/(1<<20))

	// Decode: the body the HTTP API would parse for (up to) a
	// decodeRatings-rating slice of this epoch.
	if body == nil {
		body = service.AppendRequestIngest(nil, batch[:min(len(batch), decodeRatings)])
	}
	t0 := time.Now()
	if req, err := service.DecodeRequest(body); err == nil {
		_, _ = req.ToBatch(t.w.nodes)
	}
	t.decodeUS = append(t.decodeUS, float64(time.Since(t0))/float64(time.Microsecond))

	st := t.sv.store
	for i := 0; i < reputationSamples; i++ {
		node := int(t.nodes[t.next%len(t.nodes)])
		t.next++
		t0 := time.Now()
		sn := st.Acquire()
		t.buf = service.AppendReputation(t.buf[:0], sn, node)
		sn.Release()
		t.queryNS = append(t.queryNS, float64(time.Since(t0)))
	}
	sn := st.Acquire()
	for i := 0; i < suspicionSamples; i++ {
		node := int(t.nodes[t.next%len(t.nodes)])
		t.next++
		t0 := time.Now()
		t.buf = service.AppendSuspicion(t.buf[:0], sn, t.th, node)
		t.suspicionUS = append(t.suspicionUS, float64(time.Since(t0))/float64(time.Microsecond))
	}
	sn.Release()
	return nil
}

// report adds the per-layer metrics: per-epoch medians of each phase and
// count, each phase's share of the summed epoch time, and the residual
// and tracing overhead that bound how far the split can be trusted.
func (t *tracer) report(res *result, rt0, rt1 runtimeSample) {
	out, extra := res.Metrics, res.Extra
	res.EigenIters = t.iters
	var intake, roll, score, detect, flag, publish, total, residual, dirty, delta sample
	for _, p := range t.phases {
		res.PhasesMS = append(res.PhasesMS, [7]float64{
			ms(p.intake), ms(p.roll), ms(p.score), ms(p.detect), ms(p.flag), ms(p.publish), ms(p.total)})
		intake = append(intake, ms(p.intake))
		roll = append(roll, ms(p.roll))
		score = append(score, ms(p.score))
		detect = append(detect, ms(p.detect))
		flag = append(flag, ms(p.flag))
		publish = append(publish, ms(p.publish))
		total = append(total, ms(p.total))
		residual = append(residual, ms(p.total-p.sum()))
		dirty = append(dirty, float64(p.dirty))
		delta = append(delta, float64(p.deltaRows))
	}
	share := func(s sample) metric { return metric{100 * s.sum() / total.sum(), "%"} }
	hits := float64(t.rep.reg.Counter("detect.incremental_hits").Value() - t.hits0)
	misses := float64(t.rep.reg.Counter("detect.incremental_misses").Value() - t.misses0)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	gcFrac := 0.0
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		gcFrac = (rt1.gcCPU - rt0.gcCPU) / cpu
	}

	out["ingest.intake_ms"] = metric{intake.p50(), "ms"}
	out["ingest.intake_share"] = share(intake)
	out["ingest.dirty_rows"] = metric{dirty.p50(), "count"}
	out["ingest.roll_ms"] = metric{roll.p50(), "ms"}
	out["ingest.roll_share"] = share(roll)
	out["ingest.window_delta_rows"] = metric{delta.p50(), "count"}
	out["reputation.score_ms"] = metric{score.p50(), "ms"}
	out["reputation.score_share"] = share(score)
	out["reputation.eigentrust_iters"] = metric{t.iters.p50(), "count"}
	out["core.detect_ms"] = metric{detect.p50(), "ms"}
	out["core.detect_share"] = share(detect)
	out["core.memo_hit_ratio"] = metric{ratio, "ratio"}
	out["core.pair_checks"] = metric{t.pairChecks.p50(), "count"}
	out["core.bound_checks"] = metric{t.bounds.p50(), "count"}
	out["service.flag_ms"] = metric{flag.p50(), "ms"}
	out["service.flag_share"] = share(flag)
	out["service.publish_ms"] = metric{publish.p50(), "ms"}
	out["service.publish_share"] = share(publish)
	out["service.publish_bytes"] = metric{t.publish.p50(), "B"}
	out["service.epoch_residual_ms"] = metric{residual.p50(), "ms"}
	out["service.suspicion_us"] = metric{t.suspicionUS.p50(), "us"}
	out["service.query_ns"] = metric{t.queryNS.p50(), "ns"}
	out["httpapi.decode_us"] = metric{t.decodeUS.p50(), "us"}
	out["runtime.alloc_mb_per_epoch"] = metric{t.alloc.p50(), "MB"}
	out["runtime.gc_cpu_frac"] = metric{gcFrac, "ratio"}
	out["obs.trace_overhead_pct"] = metric{100 * (total.p50() - t.applyMS.p50()) / t.applyMS.p50(), "%"}
	extra["residual_share"] = share(residual)
	extra["replica_epoch_ms_p50"] = metric{total.p50(), "ms"}
	extra["store_apply_ms_p50"] = metric{t.applyMS.p50(), "ms"}
}
