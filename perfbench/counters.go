package main

import (
	"sync"
	"time"

	"fpgauv"
)

// FleetStatus is the scheduler snapshot the counters are read from.
type FleetStatus = fpgauv.FleetStatus

// Delta is what the public Status counters moved by over a window.
type Delta struct {
	Before, After FleetStatus

	InferRequests, InferImages, InferMicroBatches int64
	EvalRequests                                  int64
	Served, Requeues, Canceled, Crashes           int64
	MACFaults, BRAMFaults                         int64
	Routes, Hops, Sheds                           int64
	GovernorProbes                                int64
	ECCCorrected, ECCDetected, ECCSilent          int64
	ScrubPasses                                   int64

	// QueueDepthMax is the deepest backlog the window's sampler saw;
	// LeftSettled reports that a governed board was seen unsettled.
	QueueDepthMax int
	LeftSettled   bool
}

// statusDelta subtracts two snapshots. Counters absent from a snapshot
// (no cluster tier, no governor) read as zero on both sides.
func statusDelta(before, after FleetStatus) Delta {
	d := Delta{
		Before:            before,
		After:             after,
		InferRequests:     after.InferRequests - before.InferRequests,
		InferImages:       after.InferImages - before.InferImages,
		InferMicroBatches: after.InferMicroBatches - before.InferMicroBatches,
		EvalRequests:      after.EvalRequests - before.EvalRequests,
		Served:            after.Served - before.Served,
		Requeues:          after.Requeues - before.Requeues,
		Canceled:          after.Canceled - before.Canceled,
		Crashes:           after.Crashes - before.Crashes,
		MACFaults:         after.MACFaults - before.MACFaults,
		BRAMFaults:        after.BRAMFaults - before.BRAMFaults,
	}
	if after.Cluster != nil && before.Cluster != nil {
		d.Routes = after.Cluster.Routes - before.Cluster.Routes
		d.Hops = after.Cluster.Hops - before.Cluster.Hops
		d.Sheds = after.Cluster.Sheds - before.Cluster.Sheds
	}
	if after.Governor != nil && before.Governor != nil {
		d.GovernorProbes = after.Governor.Probes + after.Governor.BRAMProbes -
			before.Governor.Probes - before.Governor.BRAMProbes
	}
	if after.ECC != nil && before.ECC != nil {
		d.ECCCorrected = after.ECC.Corrected - before.ECC.Corrected
		d.ECCDetected = after.ECC.Detected - before.ECC.Detected
		d.ECCSilent = after.ECC.Silent - before.ECC.Silent
		d.ScrubPasses = after.ECC.ScrubPasses - before.ECC.ScrubPasses
	}
	return d
}

// window brackets a measurement: a Status snapshot at each end and a
// sampler in between that records the deepest backlog and whether every
// governed rail stayed settled.
type window struct {
	sched  statusSource
	before FleetStatus
	stop   chan struct{}
	done   sync.WaitGroup

	depthMax    int
	leftSettled bool
}

// statusSource is the part of a scheduler a window reads.
type statusSource interface {
	Status() FleetStatus
	QueueDepth() int
}

// sampleEvery is the window sampler's period; every settleEvery-th
// sample also checks the governor state (a full Status snapshot).
const (
	sampleEvery = 2 * time.Millisecond
	settleEvery = 25
)

func newWindow(s statusSource) *window {
	w := &window{sched: s, before: s.Status(), stop: make(chan struct{})}
	w.done.Add(1)
	go w.sample()
	return w
}

func (w *window) sample() {
	defer w.done.Done()
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		if d := w.sched.QueueDepth(); d > w.depthMax {
			w.depthMax = d
		}
		if i%settleEvery == 0 && !settled(w.sched.Status()) {
			w.leftSettled = true
		}
	}
}

// close stops the sampler and returns the window's counter deltas.
func (w *window) close() Delta {
	close(w.stop)
	w.done.Wait()
	after := w.sched.Status()
	d := statusDelta(w.before, after)
	d.QueueDepthMax = w.depthMax
	d.LeftSettled = w.leftSettled || !settled(after)
	return d
}
