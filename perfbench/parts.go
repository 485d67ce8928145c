package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// parts is how many fresh processes an untraced run is split over. Each
// brings its own fleet up, which is what setup_s times (characterization
// is cached per process, so a second bring-up in one process would be
// cheap and unrepresentative), then serves one share of the run. Spread
// over several processes, the measurement does not hang on how one
// process happened to be placed in memory and on the cores of a shared
// host.
const parts = 4

// Part is what one child process measured: its phases' shots, plus the
// figures only the child can read.
type Part struct {
	Phases []PhaseResult
	// CPU samples the host's CPU counters across the phases.
	CPU []CPUSample
	// GOPsPerW is the child's fleet efficiency at the end of its window;
	// PeakRSSMB its own peak resident set.
	GOPsPerW  float64
	PeakRSSMB float64
	// Invalid is the compute-path guard's refusal of the child's window,
	// empty when the window ran the compute path.
	Invalid string
}

// partMain is the -part child: bring the fleet up and print "ready",
// measure one part, shut the fleet down, and print the Part as one JSON
// line.
func partMain(ctx context.Context, wl Workload, seed int64, dur time.Duration) error {
	b, err := bringUp(ctx, wl)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	p, err := measurePart(ctx, b, seed, dur)
	b.Close()
	if err != nil {
		return err
	}
	p.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(p)
}

// measurePart builds the reference answers and the traffic, warms the
// fleet up, and runs the workload's phases for dur.
func measurePart(ctx context.Context, b *Bench, seed int64, dur time.Duration) (Part, error) {
	ref, err := refDeploy(b.Workload.Name)
	if err != nil {
		return Part{}, err
	}
	tr, err := makeTraffic(b.Workload.Name, seed, ref)
	if err != nil {
		return Part{}, err
	}
	cpu := startCPUSampler()
	warmUp(ctx, b, tr)
	w := newWindow(b.Sched)
	p := Part{Phases: runPhases(ctx, b, tr, dur, httpFire(b, tr))}
	p.CPU = cpu.close()
	d := w.close()
	p.GOPsPerW = gopsPerW(d.After)
	if err := guardComputePath(b, d); err != nil {
		p.Invalid = err.Error()
	}
	return p, nil
}

// runPart runs one -part child to its end and returns its Part and its
// set-up time: from starting the process until it reports ready.
func runPart(ctx context.Context, wl Workload, seed int64, dur time.Duration) (Part, float64, error) {
	var p Part
	self, err := os.Executable()
	if err != nil {
		return p, 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-part", dur.String(),
		"-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return p, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return p, 0, err
	}
	r := bufio.NewReader(out)
	line, rerr := r.ReadString('\n')
	setup := time.Since(t0).Seconds()
	if rerr == nil && strings.TrimSpace(line) != "ready" {
		rerr = fmt.Errorf("first line %q, want ready", line)
	}
	if rerr == nil {
		rerr = json.NewDecoder(r).Decode(&p)
	}
	io.Copy(io.Discard, r) // let the child finish writing and exit
	werr := cmd.Wait()
	if werr != nil {
		return p, 0, fmt.Errorf("child: %w", werr)
	}
	if rerr != nil {
		return p, 0, fmt.Errorf("child output: %w", rerr)
	}
	return p, setup, nil
}
