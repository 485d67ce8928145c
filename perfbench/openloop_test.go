package main

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"
)

// stallingServer is a fake handler that serves one request at a time,
// 1 ms each, except that the first request stalls for stall.
type stallingServer struct {
	mu    sync.Mutex
	stall time.Duration
	calls int
}

func (f *stallingServer) fire(_ context.Context, _ int, s *Shot, now func() int64) Outcome {
	s.Start = now()
	f.mu.Lock()
	d := time.Millisecond
	if f.calls == 0 {
		d = f.stall
	}
	f.calls++
	time.Sleep(d)
	f.mu.Unlock()
	s.End = now()
	return OK
}

// TestDueTimeLatencyShowsStall checks that a stall is charged to every
// request due while it lasted. A closed-loop client would have sent
// nothing during the stall and reported one slow request; the open-loop
// generator keeps firing on schedule and times each request from its
// due time, so the requests queued behind the stall report the wait.
func TestDueTimeLatencyShowsStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := &stallingServer{stall: stall}
	p := runOpenLoop(context.Background(), "stall", 100, 1, time.Second, srv.fire)
	if len(p.Shots) != 100 {
		t.Fatalf("sent %d shots, want 100", len(p.Shots))
	}
	slow := 0
	for _, s := range p.Shots[1:] {
		if s.Due < int64(stall/2) && s.LatencyMS() >= float64(stall/time.Millisecond)/2 {
			slow++
		}
	}
	// Requests due in the first half of the stall (every 10 ms) waited
	// at least until it ended.
	if slow < 12 {
		t.Fatalf("%d requests due during the stall report it, want >= 12", slow)
	}
	lag := summarize(p.Lags())
	if lag.P99 > 50 {
		t.Fatalf("generator lag p99 %.1f ms: it waited for responses instead of its schedule", lag.P99)
	}
	// About 30 of the 100 requests were due during the stall, so the
	// 90th percentile must show it.
	if p90 := percentile(sortedCopy(p.Latencies()), 90); p90 < 50 {
		t.Fatalf("due-time p90 %.2f ms does not include the queueing behind the stall", p90)
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func TestRefusedRequestsCountAsInf(t *testing.T) {
	p := PhaseResult{Rate: 1, Shots: []Shot{
		{Due: 0, End: 1e6, Outcome: OK},
		{Due: 0, End: 1e6, Outcome: Shed},
		{Due: 0, End: 1e6, Outcome: Failed},
		{Due: 0, End: 0, Outcome: Dropped},
	}}
	lat := p.Latencies()
	if lat[0] != 1 || lat[1] != inf || lat[2] != inf || lat[3] != inf {
		t.Fatalf("latencies %v", lat)
	}
	if got := p.ServedLatencies(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("served latencies %v", got)
	}
	if c := p.Counts(); c != (Counts{Sent: 4, OK: 1, Shed: 1, Failed: 1, Dropped: 1}) {
		t.Fatalf("counts %+v", c)
	}
}

func TestWindowsAndServedPerSec(t *testing.T) {
	// 4000 shots at 1000/s: four one-second windows. Window 2 serves
	// nothing; the others serve every shot within the window.
	p := PhaseResult{Rate: 1000}
	for i := 0; i < 4000; i++ {
		due := int64(i) * 1e6
		o := OK
		if i >= 2000 && i < 3000 {
			o = Shed
		}
		p.Shots = append(p.Shots, Shot{Due: due, End: due + 5e5, Outcome: o})
	}
	ws := p.windows()
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	for i, w := range ws {
		if len(w.Shots) != 1000 {
			t.Fatalf("window %d holds %d shots", i, len(w.Shots))
		}
	}
	if got := median(p.WindowServedPerSec()); got != 1000 {
		t.Fatalf("median served rate %g, want 1000 (one empty window of four)", got)
	}
	if got := median(p.WindowP99s()); got != 0.5 {
		t.Fatalf("windowed p99 %g, want 0.5 ms (one all-shed window of four)", got)
	}
	// Fewer than two windows' worth of samples: one window.
	if n := len((PhaseResult{Rate: 100, Shots: make([]Shot, 1999)}).windows()); n != 1 {
		t.Fatalf("%d windows for 1999 shots, want 1", n)
	}
}

func TestWindowSummariesOutvoteASlowSpan(t *testing.T) {
	// 6 s at 100/s: four 1.5 s latency windows. Every request in the
	// first window takes 10 ms, every other one 2 ms; the median of the
	// window medians ignores the slow span, the pooled median does not
	// have to.
	p := PhaseResult{Rate: 100}
	for i := 0; i < 600; i++ {
		due := int64(i) * 1e7
		lat := int64(2e6)
		if i < 150 {
			lat = 1e7
		}
		p.Shots = append(p.Shots, Shot{Due: due, End: due + lat, Outcome: OK})
	}
	ws := p.WindowSummaries()
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	var p50s []float64
	for i, w := range ws {
		if w.N != 150 {
			t.Fatalf("window %d holds %d shots, want 150", i, w.N)
		}
		p50s = append(p50s, w.P50)
	}
	if p50s[0] != 10 || median(p50s) != 2 {
		t.Fatalf("window p50s %v: want the first at 10 ms and the median at 2 ms", p50s)
	}
	// A schedule shorter than one window is one window.
	short := PhaseResult{Rate: 100, Shots: p.Shots[:50]}
	if n := len(short.WindowSummaries()); n != 1 {
		t.Fatalf("%d windows for 0.5 s of schedule, want 1", n)
	}
}
