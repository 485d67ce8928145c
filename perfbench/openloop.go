package main

import (
	"context"
	"math"
	"sync"
	"time"
)

// Outcome classifies one request.
type Outcome uint8

const (
	// OK is a correct, served answer.
	OK Outcome = iota
	// Shed is a refusal by admission control (HTTP 429).
	Shed
	// Failed is an error or a wrong answer.
	Failed
	// Dropped is a request the generator did not send because
	// maxInFlight requests were already outstanding.
	Dropped
)

// maxInFlight caps the generator's outstanding requests, like a client
// population holding that many connections. A request due while all are
// busy is dropped, not delayed. Healthy overload keeps about 50 requests
// in flight; without a cap, an overloaded two-core host can tip into a
// collapse where thousands of handler goroutines decode at once and the
// served rate falls below 100/s.
const maxInFlight = 256

// Shot is one open-loop request. Times are nanoseconds from the phase
// start. Due is when the schedule said to send it; Fired when the
// generator actually did; Start/End bracket the call into the layer
// under test (the benchmark's own span around it).
type Shot struct {
	Due, Fired, Start, End int64
	Outcome                Outcome
}

// LatencyMS is the shot's latency from its due time, so time the
// request spent behind a stalled generator or a backed-up server counts.
func (s Shot) LatencyMS() float64 { return float64(s.End-s.Due) / 1e6 }

// CallMS is the duration of the call itself, without generator lag.
func (s Shot) CallMS() float64 { return float64(s.End-s.Start) / 1e6 }

// LagMS is how late the generator fired the shot.
func (s Shot) LagMS() float64 { return float64(s.Fired-s.Due) / 1e6 }

// PhaseResult is one finished open-loop phase.
type PhaseResult struct {
	Name  string
	Rate  float64
	Shots []Shot
	// StartNS is the phase start in Unix nanoseconds.
	StartNS int64
	// ElapsedNS runs from the phase start to the last completion.
	ElapsedNS int64
}

// Fire sends request seq and classifies the answer. now returns the
// phase clock; Fire stamps s.Start and s.End around the call it times.
type Fire func(ctx context.Context, seq int, s *Shot, now func() int64) Outcome

// runOpenLoop offers rate requests per second for dur on an absolute
// schedule, in bursts of burst requests due at the same instant:
// request i is due at (i - i%burst)/rate whatever happened to earlier
// requests, each runs in its own goroutine, and the phase ends when the
// last one has completed. A generator that falls behind fires overdue
// requests at once, keeping their original due times.
func runOpenLoop(ctx context.Context, name string, rate float64, burst int, dur time.Duration, fire Fire) PhaseResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := float64(time.Second) / rate
	res := PhaseResult{Name: name, Rate: rate, Shots: make([]Shot, n)}
	start := time.Now()
	res.StartNS = start.UnixNano()
	now := func() int64 { return int64(time.Since(start)) }
	var wg sync.WaitGroup
	slots := make(chan struct{}, maxInFlight) // a counting semaphore
	for i := 0; i < n; i++ {
		due := int64(float64(i-i%max(burst, 1)) * interval)
		if d := time.Duration(due - now()); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			res.Shots = res.Shots[:i]
			break
		}
		s := &res.Shots[i]
		s.Due, s.Fired = due, now()
		select {
		case slots <- struct{}{}:
		default:
			s.Start, s.End, s.Outcome = s.Fired, s.Fired, Dropped
			continue
		}
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			s := &res.Shots[seq]
			s.Outcome = fire(ctx, seq, s, now)
			<-slots
		}(i)
	}
	wg.Wait()
	res.ElapsedNS = now()
	return res
}

// Counts tallies a phase's outcomes. Sent counts every scheduled
// request, Dropped included.
type Counts struct{ Sent, OK, Shed, Failed, Dropped int }

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Shed += o.Shed
	c.Failed += o.Failed
	c.Dropped += o.Dropped
}

func (p PhaseResult) Counts() Counts {
	c := Counts{Sent: len(p.Shots)}
	for _, s := range p.Shots {
		switch s.Outcome {
		case OK:
			c.OK++
		case Shed:
			c.Shed++
		case Dropped:
			c.Dropped++
		default:
			c.Failed++
		}
	}
	return c
}

// Latencies returns every shot's due-time latency in milliseconds, with
// shed and failed shots as +Inf (they miss every latency limit).
func (p PhaseResult) Latencies() []float64 {
	out := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		out[i] = s.LatencyMS()
		if s.Outcome != OK {
			out[i] = inf
		}
	}
	return out
}

// ServedLatencies returns the due-time latencies of served shots only.
func (p PhaseResult) ServedLatencies() []float64 {
	var out []float64
	for _, s := range p.Shots {
		if s.Outcome == OK {
			out = append(out, s.LatencyMS())
		}
	}
	return out
}

// CallTimes returns the call durations of served shots in milliseconds.
func (p PhaseResult) CallTimes() []float64 {
	var out []float64
	for _, s := range p.Shots {
		if s.Outcome == OK {
			out = append(out, s.CallMS())
		}
	}
	return out
}

// Lags returns every shot's generator lag in milliseconds.
func (p PhaseResult) Lags() []float64 {
	out := make([]float64, len(p.Shots))
	for i, s := range p.Shots {
		out[i] = s.LagMS()
	}
	return out
}

// joinLatencies concatenates the due-time latencies of several phases
// (served only when servedOnly).
func joinLatencies(ps []PhaseResult, servedOnly bool) []float64 {
	var out []float64
	for _, p := range ps {
		if servedOnly {
			out = append(out, p.ServedLatencies()...)
		} else {
			out = append(out, p.Latencies()...)
		}
	}
	return out
}

// ScheduleNS is the span of the phase's schedule: n shots at rate.
func (p PhaseResult) ScheduleNS() int64 {
	return int64(float64(len(p.Shots)) / p.Rate * 1e9)
}

// minWindowSamples is the fewest shots a sub-window may hold: enough
// for its p99 to have ten samples beyond it.
const minWindowSamples = 1000

// maxWindows caps how many sub-windows a phase is cut into.
const maxWindows = 8

// windows cuts the phase's schedule into k equal consecutive spans, k
// as large as maxWindows allows while each span still holds
// minWindowSamples shots (at least one span).
func (p PhaseResult) windows() []PhaseResult {
	k := len(p.Shots) / minWindowSamples
	return p.split(max(1, min(k, maxWindows)))
}

// split cuts the phase's schedule into k equal consecutive spans (k >=
// 1). Shots belong to the span their due time falls in.
func (p PhaseResult) split(k int) []PhaseResult {
	span := max(p.ScheduleNS()/int64(k), 1)
	out := make([]PhaseResult, k)
	for i := range out {
		out[i] = PhaseResult{Name: p.Name, Rate: p.Rate}
	}
	for _, s := range p.Shots {
		i := min(int(s.Due/span), k-1)
		out[i].Shots = append(out[i].Shots, s)
	}
	return out
}

// latencyWindow is the span of schedule each steady-phase latency
// window covers. A neighbour's burst on a shared host slows every
// request that overlaps it; with each window summarized on its own and
// the median over windows reported, a burst has to cover more than half
// of them to move the result.
const latencyWindow = 1500 * time.Millisecond

// WindowSummaries summarizes each latencyWindow-long span of the
// schedule (at least one), with shed, failed and dropped shots as +Inf.
func (p PhaseResult) WindowSummaries() []Summary {
	var out []Summary
	for _, w := range p.split(p.latencyWindows()) {
		out = append(out, summarize(w.Latencies()))
	}
	return out
}

// latencyWindows is how many latencyWindow-long spans the schedule is
// cut into (at least one).
func (p PhaseResult) latencyWindows() int {
	return max(1, int(math.Round(float64(p.ScheduleNS())/float64(latencyWindow))))
}

// Steal is, for each of k equal consecutive spans of the schedule (as
// split cuts them), the share of the host's CPU time stolen from this
// machine over it (-1 where the samples do not cover the span).
func (p PhaseResult) Steal(k int, samples []CPUSample) []float64 {
	span := p.ScheduleNS() / int64(k)
	out := make([]float64, k)
	for i := range out {
		from := p.StartNS + int64(i)*span
		out[i] = stealShare(samples, from, from+span)
	}
	return out
}

// WindowP99s is each sub-window's p99, with shed, failed and dropped
// shots as +Inf.
func (p PhaseResult) WindowP99s() []float64 {
	var p99s []float64
	for _, w := range p.windows() {
		p99s = append(p99s, summarize(w.Latencies()).P99)
	}
	return p99s
}

// WindowServedPerSec is, for each sub-window, the served completions
// that landed in it per second of window. Completions after the
// schedule ends (the drain) are not counted.
func (p PhaseResult) WindowServedPerSec() []float64 {
	ws := p.windows()
	span := p.ScheduleNS() / int64(len(ws))
	counts := make([]float64, len(ws))
	for _, s := range p.Shots {
		if s.Outcome == OK && s.End < span*int64(len(ws)) {
			counts[s.End/span]++
		}
	}
	for i := range counts {
		counts[i] /= float64(span) / 1e9
	}
	return counts
}
