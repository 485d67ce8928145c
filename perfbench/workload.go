package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"fpgauv"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlInfer    = "infer-cluster"
	wlClassify = "classify-governed"
)

// Phase is one fixed-rate segment of a workload's open-loop schedule.
type Phase struct {
	// Name labels the phase ("steady" or "overload").
	Name string
	// Rate is the offered load in requests per second. It is a constant
	// of the benchmark, derived once from SeedCapacity and never
	// re-calibrated per run: a rate that followed the host's measured
	// capacity would make two commits' rows incomparable.
	Rate float64
	// Share is the fraction of each cycle (see measuredRun) this phase
	// gets.
	Share float64
	// Burst is how many requests share each due time.
	Burst int
}

// Workload is one traffic mix against one fleet configuration.
type Workload struct {
	Name string
	// SeedCapacity is the closed-loop capacity (requests per second)
	// measured once on the seed commit with -calibrate, which the phase
	// rates were chosen against (see README.md).
	SeedCapacity float64
	Phases       []Phase
	// Path is the HTTP endpoint the traffic posts to.
	Path string
}

// The offered rates are constants. They were fixed from the seed
// commit's closed-loop capacity on a 2-vCPU host (see README.md,
// "Offered rates"); a later commit that serves faster shows it as lower
// latency and higher overload_ips at the same offered load.
var workloads = map[string]Workload{
	wlInfer: {
		Name:         wlInfer,
		SeedCapacity: 460,
		Path:         "/v1/infer",
		Phases: []Phase{
			{Name: "steady", Rate: 115, Share: 0.75, Burst: 1},
			{Name: "overload", Rate: 1000, Share: 0.25, Burst: 1},
		},
	},
	wlClassify: {
		Name:         wlClassify,
		SeedCapacity: 260,
		Path:         "/v1/classify",
		// Bursts of the front-end's classify batch size: each burst
		// coalesces into one full 32-image evaluation pass, where evenly
		// spaced calls would each pay a pass of their own.
		Phases: []Phase{
			{Name: "steady", Rate: 130, Share: 0.75, Burst: 8},
			{Name: "overload", Rate: 800, Share: 0.25, Burst: 8},
		},
	},
}

// serveConfig is uvolt-serve's front-end configuration at its flag
// defaults: 8 classify calls or 16 images per pass, a 2 ms batching
// window, and request tracing on, as shipped.
func serveConfig() fpgauv.ServeConfig {
	return fpgauv.ServeConfig{
		BatchSize:   8,
		BatchImages: 16,
		BatchWindow: 2 * time.Millisecond,
		Trace:       true,
		TraceRing:   256,
		SLO: fpgauv.SLOConfig{
			AvailabilityTarget: 0.999,
			LatencyTarget:      250 * time.Millisecond,
			LatencyGoal:        0.99,
			BurnThreshold:      4,
		},
	}
}

// fleetConfig is the pool template of a workload, matching the
// uvolt-serve flags README.md lists for it. The fleet seed is fixed:
// the benchmark seed only varies the traffic, never the hardware.
func fleetConfig(name string) fpgauv.FleetConfig {
	cfg := fpgauv.FleetConfig{
		Benchmark:  "VGGNet",
		Tiny:       true,
		Images:     32,
		MarginMV:   10,
		MicroBatch: 16,
		Telemetry:  fpgauv.TelemetryConfig{Interval: 50 * time.Millisecond},
		ECC:        fpgauv.ECCConfig{ScrubInterval: 250 * time.Millisecond},
		Governor: fpgauv.GovernorConfig{
			Interval:    25 * time.Millisecond,
			StepMV:      5,
			MarginMV:    5,
			ProbeImages: 12,
		},
	}
	switch name {
	case wlInfer:
		// uvolt-serve -pools 2 -pool-boards 2: a clustered pool's
		// max-queue defaults to 8.
		cfg.Boards = 2
		cfg.MaxQueue = 8
	case wlClassify:
		// uvolt-serve -prune-sparsity 0.9 -ecc -governor -governor-bram
		// -max-queue 8.
		cfg.Boards = 3
		cfg.MaxQueue = 8
		cfg.PruneSparsity = 0.9
		cfg.ECC.Enabled = true
		cfg.Governor.Enabled = true
		cfg.Governor.BRAM = true
	}
	return cfg
}

// Bench is a running fleet behind its in-process HTTP front-end.
type Bench struct {
	Workload Workload
	Sched    fpgauv.Scheduler
	// Cluster is set on infer-cluster (the router), nil otherwise.
	Cluster *fpgauv.Cluster
	Server  *fpgauv.Server
	Handler http.Handler
	// CharacterizeS is the constructor's wall time (characterization
	// included); SettleS the wait for every governed rail to settle.
	CharacterizeS float64
	SettleS       float64
}

// settleTimeout bounds the wait for the governor loops to settle.
const settleTimeout = 60 * time.Second

// bringUp builds the workload's fleet through the public constructors
// and returns once it is ready to serve: every board characterized and,
// on classify-governed, every VCCINT and VCCBRAM loop settled.
func bringUp(ctx context.Context, wl Workload) (*Bench, error) {
	b := &Bench{Workload: wl}
	t0 := time.Now()
	cfg := fleetConfig(wl.Name)
	switch wl.Name {
	case wlInfer:
		cl, err := fpgauv.NewCluster(fpgauv.ClusterConfig{Pools: 2, Pool: cfg})
		if err != nil {
			return nil, fmt.Errorf("bring up %s: %w", wl.Name, err)
		}
		b.Sched, b.Cluster = cl, cl
	default:
		p, err := fpgauv.NewFleet(cfg)
		if err != nil {
			return nil, fmt.Errorf("bring up %s: %w", wl.Name, err)
		}
		b.Sched = p
	}
	b.CharacterizeS = time.Since(t0).Seconds()
	t1 := time.Now()
	if err := waitSettled(ctx, b.Sched); err != nil {
		b.Sched.Close()
		return nil, err
	}
	b.SettleS = time.Since(t1).Seconds()
	b.Server = fpgauv.NewServer(b.Sched, serveConfig())
	b.Handler = b.Server.Handler()
	return b, nil
}

// waitSettled polls Status until every governed board reports both its
// VCCINT and VCCBRAM loops settled. Pools without an enabled governor
// are settled at once.
func waitSettled(ctx context.Context, s fpgauv.Scheduler) error {
	ctx, cancel := context.WithTimeout(ctx, settleTimeout)
	defer cancel()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for !settled(s.Status()) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("governor did not settle within %v", settleTimeout)
		case <-t.C:
		}
	}
	return nil
}

// settled reports whether every board with an enabled governor has both
// loops settled (the BRAM loop only when BRAM governing is on).
func settled(st fpgauv.FleetStatus) bool {
	if st.Governor == nil || !st.Governor.Enabled {
		return true
	}
	for _, b := range st.Boards {
		g := b.Governor
		if g == nil {
			continue
		}
		if !g.Settled || (st.Governor.BRAM && !g.BRAM.Settled) {
			return false
		}
	}
	return true
}

// Close drains the front-end and shuts the fleet down.
func (b *Bench) Close() { b.Server.Close() }
