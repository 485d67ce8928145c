// Command perfbench is the repository's benchmark: it brings an
// undervolted fleet up in-process through the public constructors,
// drives its HTTP handler on a fixed open-loop schedule, checks every
// answer, and prints one JSON result line.
//
// Usage (from the repository root; run.py builds and runs it):
//
//	python3 perfbench/run.py --workload infer-cluster --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the
// workload with the benchmark's own spans on and prints the per-layer
// metrics. See README.md for the workloads, metrics and offered rates.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: infer-cluster or classify-governed")
	seed := flag.Int64("seed", 1, "traffic seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	part := flag.Duration("part", 0, "internal: run one measured part of this length and print it")
	calibrate := flag.Bool("calibrate", false, "measure the workload's closed-loop capacity and exit")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch {
	case *part > 0:
		err = partMain(ctx, wl, *seed, *part)
	case *calibrate:
		err = calibrateMain(ctx, wl, *seed, time.Duration(*seconds)*time.Second)
	default:
		var res *Result
		res, err = run(ctx, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err == nil {
			err = res.print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of the benchmark's output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// stamp and notes are printed on the lines before the result.
	stamp map[string]any
	notes []string
}

func (r *Result) set(name string, v float64, unit string) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// JSON has no infinity. A percentile that landed on a failed
		// request, or a metric with no samples, reads as a sentinel.
		r.notes = append(r.notes, fmt.Sprintf("%s has no finite value (%v); reported as %g", name, v, sentinel))
		v = sentinel
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// sentinel stands in for a non-finite metric value.
const sentinel = 1e9

func (r *Result) print(f *os.File) error {
	for _, n := range r.notes {
		fmt.Fprintln(f, "note:", n)
	}
	stamp, err := json.Marshal(r.stamp)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "stamp:", string(stamp))
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// run executes one benchmark run.
func run(ctx context.Context, wl Workload, seed int64, dur time.Duration, traced bool) (*Result, error) {
	res := &Result{Metrics: map[string]Metric{}, stamp: hostStamp()}
	res.stamp["workload"] = wl.Name
	res.stamp["seed"] = seed
	res.stamp["seconds"] = dur.Seconds()
	res.stamp["seed_capacity_rps"] = wl.SeedCapacity
	rates := map[string]float64{}
	for _, ph := range wl.Phases {
		rates[ph.Name] = ph.Rate
	}
	res.stamp["offered_rps"] = rates

	logf("start %s seed %d", wl.Name, seed)
	if !traced {
		if err := measuredRun(ctx, wl, seed, dur, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	ref, err := refDeploy(wl.Name)
	if err != nil {
		return nil, err
	}
	tr, err := makeTraffic(wl.Name, seed, ref)
	if err != nil {
		return nil, err
	}
	b, err := bringUp(ctx, wl)
	if err != nil {
		return nil, err
	}
	logf("fleet up")
	if err := tracedRun(ctx, b, tr, ref, dur, res); err != nil {
		return nil, err
	}
	return res, nil
}

// started is when the process began, for logf.
var started = time.Now()

// logf writes a progress line, stamped with the seconds since the
// process started, to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs "+format+"\n", append([]any{time.Since(started).Seconds()}, args...)...)
}

// measuredRun is the untraced run: the workload's phases split over
// parts fresh processes, end-to-end metrics only.
func measuredRun(ctx context.Context, wl Workload, seed int64, dur time.Duration, res *Result) error {
	var steady, over, all []PhaseResult
	var setups, gops, rss []float64
	var cpus [][]CPUSample
	var invalid []error
	for i := 0; i < parts; i++ {
		p, setup, err := runPart(ctx, wl, seed, dur/parts)
		if err != nil {
			return fmt.Errorf("part %d: %w", i, err)
		}
		if len(p.Phases) != len(wl.Phases) {
			return fmt.Errorf("part %d: %d phases, want %d", i, len(p.Phases), len(wl.Phases))
		}
		logf("part %d done", i)
		setups = append(setups, setup)
		steady, over = append(steady, p.Phases[0]), append(over, p.Phases[1])
		all = append(all, p.Phases...)
		gops, rss = append(gops, p.GOPsPerW), append(rss, p.PeakRSSMB)
		cpus = append(cpus, p.CPU)
		if p.Invalid != "" {
			invalid = append(invalid, fmt.Errorf("part %d: %s", i, p.Invalid))
		}
	}
	judge(all, errors.Join(invalid...), res)

	// Steady latency: one Summary per latencyWindow span; overload: the
	// sub-windows of at least minWindowSamples requests. Each run's
	// figures come from the windows the host's steal counters show
	// undisturbed (see quiet).
	var p50s, p90s, p99s, ips, steadySteal, overSteal []float64
	var overWins []PhaseResult
	for i := range steady {
		ws := steady[i].WindowSummaries()
		for _, w := range ws {
			p50s, p90s = append(p50s, w.P50), append(p90s, w.P90)
		}
		steadySteal = append(steadySteal, steady[i].Steal(len(ws), cpus[i])...)
		p99s = append(p99s, steady[i].WindowP99s()...)
		ow := over[i].windows()
		overWins = append(overWins, ow...)
		overSteal = append(overSteal, over[i].Steal(len(ow), cpus[i])...)
		ips = append(ips, over[i].WindowServedPerSec()...)
	}
	steadyQuiet, overQuiet := quiet(steadySteal), quiet(overSteal)
	res.set("setup_s", median(setups), "s")
	res.set("p50_ms", median(pick(p50s, steadyQuiet)), "ms")
	res.set("overload_ips", median(pick(ips, overQuiet)), "1/s")
	res.set("overload_p99_ms", summarize(joinLatencies(pick(overWins, overQuiet), true)).P99, "ms")
	res.set("gops_per_w", median(gops), "GOPs/W")
	res.set("peak_rss_mb", median(rss), "MB")

	lat := summarize(joinLatencies(steady, false))
	res.stamp["setup_runs_s"] = setups
	res.stamp["steady_window_p50_ms"] = p50s
	res.stamp["steady_window_p90_ms"] = p90s
	res.stamp["steady_p90_ms"] = median(pick(p90s, steadyQuiet))
	res.stamp["steady_window_steal"] = steadySteal
	res.stamp["overload_window_steal"] = overSteal
	res.stamp["quiet_windows"] = map[string][]int{"steady": steadyQuiet, "overload": overQuiet}
	res.stamp["part_gops_per_w"] = gops
	res.stamp["steady_samples"] = lat.N
	res.stamp["steady_p99_ms"] = lat.P99
	res.stamp["steady_window_p99_ms"] = p99s
	res.stamp["steady_tail"] = map[string]float64{"pct": lat.TailPct, "ms": lat.Tail}
	res.stamp["overload_window_ips"] = ips
	res.stamp["part_peak_rss_mb"] = rss
	return nil
}

// warmUpTime is how long the fleet serves the steady rate before any
// measurement, so arenas, worker pools and the heap reach their steady
// sizes outside timing.
const warmUpTime = 2 * time.Second

// warmUp offers the steady rate for warmUpTime and discards the result.
func warmUp(ctx context.Context, b *Bench, tr *Traffic) {
	runOpenLoop(ctx, "warm-up", b.Workload.Phases[0].Rate, b.Workload.Phases[0].Burst, warmUpTime, httpFire(b, tr))
}

// runPhases runs the workload's phases back to back, each for its share
// of dur.
func runPhases(ctx context.Context, b *Bench, tr *Traffic, dur time.Duration, fire Fire) []PhaseResult {
	var out []PhaseResult
	for _, ph := range b.Workload.Phases {
		d := time.Duration(float64(dur) * ph.Share)
		out = append(out, runOpenLoop(ctx, ph.Name, ph.Rate, ph.Burst, d, fire))
	}
	return out
}

// judge fills the result's correctness fields from the phases and the
// compute-path guard's verdict (nil when the guard passed), and records
// per-phase outcome counts in the stamp.
// A steady-phase shed or drop is a failure (that phase runs below
// capacity); in overload both are the admission contract working.
func judge(phases []PhaseResult, guard error, res *Result) {
	res.Correct = true
	counts := map[string]Counts{}
	for _, p := range phases {
		c := p.Counts()
		sum := counts[p.Name]
		sum.Add(c)
		counts[p.Name] = sum
		res.Attempted += c.Sent
		res.Failed += c.Failed
		if p.Name == "steady" {
			res.Failed += c.Shed + c.Dropped
		}
		lag := summarize(p.Lags())
		if lag.P99 > lagLimitMS {
			res.notes = append(res.notes, fmt.Sprintf(
				"phase %s: generator lag p99 %.2f ms exceeds %.0f ms; it could not keep its schedule", p.Name, lag.P99, lagLimitMS))
			res.stamp["lag_flag"] = true
		}
	}
	res.stamp["phases"] = counts
	if res.Failed > 0 {
		res.Correct = false
	}
	if guard != nil {
		res.Correct = false
		res.notes = append(res.notes, "run invalid: "+guard.Error())
	}
}

// lagLimitMS is the generator lag p99 above which a run is flagged as
// unable to keep its schedule: five of the Go scheduler's 10 ms
// preemption slices, so routine waits for a busy core do not trip it.
const lagLimitMS = 50.0

// guardComputePath refuses a classify-governed window that did not run
// the compute path: with no BRAM flips or no ECC corrections the passes
// fell onto the cached reference predictions, and a board that left the
// settled state means the rails moved under the measurement.
func guardComputePath(b *Bench, d Delta) error {
	if b.Workload.Name != wlClassify {
		return nil
	}
	if d.BRAMFaults <= 0 || d.ECCCorrected <= 0 {
		return fmt.Errorf("window saw %d BRAM faults and %d ECC corrections; traffic bypassed the compute path",
			d.BRAMFaults, d.ECCCorrected)
	}
	if d.LeftSettled {
		return fmt.Errorf("a board left the settled state during the window")
	}
	return nil
}

// gopsPerW is the modeled fleet efficiency: aggregate GOPs over summed
// board power.
func gopsPerW(st FleetStatus) float64 {
	var w float64
	for _, b := range st.Boards {
		w += b.PowerW
	}
	if w <= 0 {
		return math.NaN()
	}
	return st.GOPs / w
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// hostStamp identifies the host and build a result came from.
func hostStamp() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision: PERFBENCH_COMMIT when set (run.py sets
// it from git when the checkout is a repository), else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
