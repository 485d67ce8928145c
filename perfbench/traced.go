package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpgauv"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/tensor"
)

// Traced-run time budget, as shares of --seconds: an untraced steady
// segment (the overhead baseline), the traced HTTP phases, then direct
// calls into the scheduler and into one pool at the job rate and size
// the traced steady phase showed. The single-layer probes that follow
// run fixed iteration counts outside this budget.
const (
	shareUntraced = 0.2
	shareSteady   = 0.25
	shareOverload = 0.15
	shareDirect   = 0.2
)

// spanDir receives the traced run's span log.
const spanDir = ".bench_out"

// tracedRun repeats the workload with the benchmark's own spans on and
// fills the per-layer metrics. Each layer is measured from outside: by
// timing calls into its public functions and by Status counter deltas.
func tracedRun(ctx context.Context, b *Bench, tr *Traffic, ref *dnndk.Deployed, dur time.Duration, res *Result) error {
	wl := b.Workload
	steadyPh, overPh := wl.Phases[0], wl.Phases[1]
	secs := func(share float64) time.Duration { return time.Duration(float64(dur) * share) }
	fire := httpFire(b, tr)
	warmUp(ctx, b, tr)
	base := runOpenLoop(ctx, "steady-untraced", steadyPh.Rate, steadyPh.Burst, secs(shareUntraced), fire)

	spans := newSpanLog()
	w := newWindow(b.Sched)
	steady := runOpenLoop(ctx, "steady", steadyPh.Rate, steadyPh.Burst, secs(shareSteady), spans.wrap("serve", fire))
	steadyDelta := statusDelta(w.before, b.Sched.Status())
	over := runOpenLoop(ctx, "overload", overPh.Rate, overPh.Burst, secs(shareOverload), spans.wrap("serve", fire))
	d := w.close()
	traced := []PhaseResult{steady, over}
	judge(traced, guardComputePath(b, d), res)

	// load: the generator's own view of the traced phases.
	var c Counts
	var lags []float64
	for _, p := range traced {
		c.Add(p.Counts())
		lags = append(lags, p.Lags()...)
	}
	res.set("load.sent", float64(c.Sent), "count")
	res.set("load.ok", float64(c.OK), "count")
	res.set("load.shed", float64(c.Shed), "count")
	res.set("load.failed", float64(c.Failed), "count")
	res.set("load.dropped", float64(c.Dropped), "count")
	res.set("load.lag_p99_ms", summarize(lags).P99, "ms")
	res.set("load.p99_ms", summarize(steady.Latencies()).P99, "ms")

	// Tracing overhead: the traced steady phase against the untraced
	// segment of the same process, both by due-time p50.
	tracedP50 := summarize(steady.Latencies()).P50
	res.set("trace.p50_ms", tracedP50, "ms")
	res.set("trace.overhead_ms", tracedP50-summarize(base.Latencies()).P50, "ms")

	// Job shape the front-end produced in the traced steady phase.
	jobs := steadyDelta.InferRequests
	imagesPerPass := ratio(steadyDelta.InferImages, steadyDelta.InferMicroBatches)
	if wl.Name == wlClassify {
		jobs = steadyDelta.EvalRequests
		cfg := fleetConfig(wl.Name)
		imagesPerPass = float64(cfg.Images) / math.Ceil(float64(cfg.Images)/float64(cfg.MicroBatch))
	}
	jobRate := float64(jobs) / (float64(steady.ElapsedNS) / 1e9)
	callsPerJob := ratio(int64(steady.Counts().OK), jobs)
	jobImages := int(math.Max(1, math.Round(callsPerJob)))
	batch := int(math.Max(1, math.Round(imagesPerPass)))

	// Direct calls: the scheduler below the HTTP front-end, then one
	// pool below the router, at the job rate and size seen above.
	pools := b.Sched.Pools()
	schedLayer := "fleet"
	if b.Cluster != nil {
		schedLayer = "cluster"
	}
	schedCall := runOpenLoop(ctx, "scheduler", jobRate, 1, secs(shareDirect/2),
		spans.wrap(schedLayer, directFire(b.Sched, tr, jobImages)))
	direct := []PhaseResult{schedCall}
	poolCall := schedCall
	if b.Cluster != nil {
		poolCall = runOpenLoop(ctx, "pool", jobRate/float64(len(pools)), 1, secs(shareDirect/2),
			spans.wrap("fleet", directFire(pools[0], tr, jobImages)))
		direct = append(direct, poolCall)
	}
	if err := spans.write(wl.Name, res.stamp["seed"]); err != nil {
		return err
	}
	for _, p := range direct {
		pc := p.Counts()
		res.Attempted += pc.Sent
		res.Failed += pc.Failed
		if pc.Failed > 0 {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("direct %s calls: %d wrong answers", p.Name, pc.Failed))
		}
	}

	requestP50 := median(steady.CallTimes())
	schedP50 := median(schedCall.CallTimes())
	poolP50 := median(poolCall.CallTimes())
	res.set("serve.request_p50_ms", requestP50, "ms")
	res.set("serve.self_p50_ms", requestP50-schedP50, "ms")
	res.set("serve.calls_per_job", callsPerJob, "ratio")
	if b.Cluster != nil {
		res.set("cluster.call_p50_ms", schedP50, "ms")
		res.set("cluster.self_p50_ms", schedP50-poolP50, "ms")
	} else {
		res.set("cluster.call_p50_ms", 0, "ms")
		res.set("cluster.self_p50_ms", 0, "ms")
	}
	res.set("cluster.routes", float64(d.Routes), "count")
	res.set("cluster.hops", float64(d.Hops), "count")
	res.set("cluster.sheds", float64(d.Sheds), "count")

	// fleet: counters of the traced HTTP phases, then the live-pool
	// probes while the fleet is still up.
	res.set("fleet.call_p50_ms", poolP50, "ms")
	res.set("fleet.images_per_pass", imagesPerPass, "images")
	res.set("fleet.attempts_per_job", ratio(d.Served+d.Requeues, d.Served), "ratio")
	res.set("fleet.requeues", float64(d.Requeues), "count")
	res.set("fleet.canceled", float64(d.Canceled), "count")
	res.set("fleet.crashes", float64(d.Crashes), "count")
	res.set("fleet.queue_depth_max", float64(d.QueueDepthMax), "count")
	res.set("fleet.characterize_s", b.CharacterizeS, "s")
	res.set("fleet.settle_s", b.SettleS, "s")
	res.set("fleet.governor_probes", float64(d.GovernorProbes), "count")
	tickUS := 0.0
	if st := d.After; st.Governor != nil && st.Governor.Enabled {
		tickUS = timeMedian(20, func() { pools[0].GovernorTick() }) / 1e3
	}
	res.set("fleet.governor_tick_us", tickUS, "us")
	res.set("dpu.mac_faults", float64(d.MACFaults), "count")
	res.set("dpu.bram_faults", float64(d.BRAMFaults), "count")
	res.set("ecc.corrected", float64(d.ECCCorrected), "count")
	res.set("ecc.detected", float64(d.ECCDetected), "count")
	res.set("ecc.silent", float64(d.ECCSilent), "count")
	res.set("ecc.scrub_passes", float64(d.ScrubPasses), "count")

	// The remaining probes run on an idle machine: close the fleet first
	// so its background loops do not share the cores.
	rails := d.After.Boards[0]
	b.Close()
	res.set("fleet.telemetry_sample_us", timeMedian(200, pools[0].SampleTelemetry)/1e3, "us")

	images := tr.Images
	if images == nil {
		images = ref.Ds.Inputs
	}
	pp, err := probeDPU(ref, images, batch, rails.OperatingMV, rails.OperatingBRAMMV, wl.Name == wlClassify)
	if err != nil {
		return err
	}
	res.set("dpu.pass_ms", pp.PassMS, "ms")
	res.set("dpu.ns_per_image", pp.PassMS*1e6/float64(batch), "ns")
	res.set("dpu.allocs_per_image", pp.AllocsPerImage, "count")
	passesPerJob := math.Ceil(float64(jobImages) / float64(fleetConfig(wl.Name).MicroBatch))
	if wl.Name == wlClassify {
		passesPerJob = math.Ceil(float64(fleetConfig(wl.Name).Images) / imagesPerPass)
	}
	res.set("fleet.self_p50_ms", poolP50-passesPerJob*pp.PassMS, "ms")

	qp, err := probeQuant(ref.Task.Kernel, batch)
	if err != nil {
		return err
	}
	res.set("quant.im2col_ms", qp.Im2colMS, "ms")
	res.set("quant.gemm_ms", qp.GemmMS, "ms")
	res.set("quant.requant_ms", qp.RequantMS, "ms")
	res.set("quant.pool_ms", qp.PoolMS, "ms")
	res.set("quant.gemm_share", qp.GemmMS/pp.PassMS, "ratio")
	res.set("quant.gemm_gmac", qp.GMAC, "GMAC")
	res.set("quant.gemm_mb", qp.MB, "MB")
	for _, l := range qp.Layers {
		res.set("quant.layer."+l.Name+"_ms", l.MS, "ms")
	}

	scrubNS, processNS := 0.0, 0.0
	if wl.Name == wlClassify {
		scrubNS, processNS = probeECC(ref.Task.Kernel)
	}
	res.set("ecc.scrub_ns_per_word", scrubNS, "ns")
	res.set("ecc.process_ns", processNS, "ns")
	return nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// timeMedian runs f reps times and returns the median duration in
// nanoseconds.
func timeMedian(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

// directFire calls a scheduler (the router, or one pool) with jobs of
// the given image count, below the HTTP front-end. Infer jobs carry
// seeded images and are checked against their nominal-rail classes;
// classify jobs are checked like HTTP ones.
func directFire(s fpgauv.Scheduler, tr *Traffic, jobImages int) Fire {
	return func(ctx context.Context, seq int, sh *Shot, now func() int64) Outcome {
		var err error
		ok := true
		if tr.Images == nil {
			var r fpgauv.FleetResult
			sh.Start = now()
			r, err = s.Classify(ctx, fpgauv.FleetRequest{})
			sh.End = now()
			ok = r.AccuracyPct == tr.WantAccuracy && r.MACFaults == 0 && r.ECC.Bad() == 0
		} else {
			imgs := make([]*tensor.Tensor, jobImages)
			idx := make([]int, jobImages)
			for i := range imgs {
				idx[i] = tr.Pick(seq*jobImages + i)
				imgs[i] = tr.Images[idx[i]]
			}
			var r fpgauv.FleetInferResult
			sh.Start = now()
			r, err = s.Infer(ctx, fpgauv.FleetInferRequest{Images: imgs})
			sh.End = now()
			for i, o := range r.Outputs {
				ok = ok && o.Pred == tr.WantPred[idx[i]]
			}
		}
		var sat fpgauv.SaturatedError
		switch {
		case errors.As(err, &sat):
			return Shed
		case err != nil || !ok:
			return Failed
		}
		return OK
	}
}

// Span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one request share Trace; Parent indexes the span
// that caused this one (-1 for a request root). Times are nanoseconds
// from the start of the traced run.
type Span struct {
	Trace      int64  `json:"trace"`
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	Start, End int64
}

// spanLog keeps the traced run's spans in memory and writes them out
// when the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	// phases numbers the wrapped phases, for trace ids.
	phases int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// wrap records, for every request f sends, a root span from its due
// time to its completion and a child span named layer around the call.
func (l *spanLog) wrap(layer string, f Fire) Fire {
	l.phases++
	phase := l.phases << 32
	return func(ctx context.Context, seq int, s *Shot, now func() int64) Outcome {
		o := f(ctx, seq, s, now)
		off := int64(time.Since(l.epoch)) - now()
		l.mu.Lock()
		root := len(l.spans)
		l.spans = append(l.spans,
			Span{Trace: phase | int64(seq), Name: "request", Parent: -1, Start: s.Due + off, End: s.End + off},
			Span{Trace: phase | int64(seq), Name: layer, Parent: root, Start: s.Start + off, End: s.End + off})
		l.mu.Unlock()
		return o
	}
}

// write stores the spans as JSON under spanDir.
func (l *spanLog) write(workload string, seed any) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spanDir, fmt.Sprintf("spans-%s-%v.json", workload, seed)), data, 0o644)
}
