package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"fpgauv"
	"fpgauv/internal/fleet"
)

func TestStatusDelta(t *testing.T) {
	before := FleetStatus{
		InferRequests: 10, InferImages: 40, InferMicroBatches: 5,
		EvalRequests: 1, Served: 11, Requeues: 1,
		MACFaults: 3, BRAMFaults: 100,
		Cluster:  &fpgauv.ClusterStatus{Routes: 10, Hops: 1, Sheds: 2},
		Governor: &fpgauv.GovernorStatus{Enabled: true, Probes: 50, BRAMProbes: 20},
		ECC:      &fpgauv.ECCStatus{ScrubPasses: 4},
	}
	before.ECC.Corrected = 30
	after := before
	after.InferRequests, after.InferImages, after.InferMicroBatches = 20, 100, 10
	after.Served, after.Requeues, after.Crashes = 25, 3, 1
	after.BRAMFaults = 160
	after.Cluster = &fpgauv.ClusterStatus{Routes: 21, Hops: 4, Sheds: 9}
	after.Governor = &fpgauv.GovernorStatus{Enabled: true, Probes: 52, BRAMProbes: 21}
	after.ECC = &fpgauv.ECCStatus{ScrubPasses: 6}
	after.ECC.Corrected, after.ECC.Detected = 45, 1

	d := statusDelta(before, after)
	want := Delta{
		InferRequests: 10, InferImages: 60, InferMicroBatches: 5,
		Served: 14, Requeues: 2, Crashes: 1, BRAMFaults: 60,
		Routes: 11, Hops: 3, Sheds: 7, GovernorProbes: 3,
		ECCCorrected: 15, ECCDetected: 1, ScrubPasses: 2,
	}
	want.Before, want.After = d.Before, d.After
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("delta\n got %+v\nwant %+v", d, want)
	}
}

func TestStatusDeltaWithoutOptionalTiers(t *testing.T) {
	// A single pool has no cluster block; a pool without a governor has
	// no governor block. Their counters read as zero, not a panic.
	d := statusDelta(FleetStatus{Served: 1}, FleetStatus{Served: 4})
	if d.Served != 3 || d.Routes != 0 || d.GovernorProbes != 0 || d.ECCCorrected != 0 {
		t.Fatalf("delta %+v", d)
	}
}

// scriptedStatus is a statusSource whose snapshots the test moves.
type scriptedStatus struct {
	mu    sync.Mutex
	st    FleetStatus
	depth int
	seen  chan struct{}
}

func (s *scriptedStatus) Status() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

func (s *scriptedStatus) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen != nil && s.depth == 7 {
		close(s.seen)
		s.seen = nil
	}
	return s.depth
}

func governed(settledNow bool) FleetStatus {
	return FleetStatus{
		Governor: &fpgauv.GovernorStatus{Enabled: true, BRAM: true},
		Boards: []fpgauv.FleetBoardStatus{{Governor: &fpgauv.BoardGovernorStatus{
			Settled: settledNow,
			BRAM:    fleet.BoardBRAMGovernorStatus{Settled: settledNow},
		}}},
	}
}

func TestWindowTracksDepthAndSettledState(t *testing.T) {
	src := &scriptedStatus{st: governed(true), seen: make(chan struct{})}
	src.st.EvalRequests = 5
	w := newWindow(src)
	src.mu.Lock()
	src.depth = 7
	src.mu.Unlock()
	select {
	case <-src.seen:
	case <-time.After(5 * time.Second):
		t.Fatal("window sampler never read the queue depth")
	}
	src.mu.Lock()
	src.depth = 2
	src.st.EvalRequests = 9
	src.mu.Unlock()
	d := w.close()
	if d.QueueDepthMax != 7 {
		t.Fatalf("queue depth max %d, want 7", d.QueueDepthMax)
	}
	if d.EvalRequests != 4 {
		t.Fatalf("eval requests delta %d, want 4", d.EvalRequests)
	}
	if d.LeftSettled {
		t.Fatal("window reports a settled fleet as unsettled")
	}

	src = &scriptedStatus{st: governed(true)}
	w = newWindow(src)
	src.mu.Lock()
	src.st = governed(false)
	src.mu.Unlock()
	if d := w.close(); !d.LeftSettled {
		t.Fatal("window missed a board leaving the settled state")
	}
}
