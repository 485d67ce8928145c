package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// CPUSample is one reading of the host's aggregate CPU counters
// (/proc/stat, in clock ticks) at T (Unix nanoseconds). Steal is the
// time this machine's virtual CPUs were ready to run while the
// hypervisor ran someone else: on a shared host it is the direct trace
// of a neighbour's load.
type CPUSample struct {
	T            int64
	Steal, Total uint64
}

// readCPU reads the aggregate "cpu" line of /proc/stat; ok is false when
// it cannot be read or has no steal column.
func readCPU() (s CPUSample, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return s, false
		}
		if i < 8 { // user .. steal; guest time is already in user
			s.Total += n
		}
		if i == 7 {
			s.Steal = n
		}
	}
	s.T = time.Now().UnixNano()
	return s, true
}

// cpuSampleEvery is the steal sampler's period.
const cpuSampleEvery = 100 * time.Millisecond

// cpuSampler records CPUSamples until stopped.
type cpuSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []CPUSample
}

// startCPUSampler takes a first sample at once, then one every
// cpuSampleEvery.
func startCPUSampler() *cpuSampler {
	c := &cpuSampler{stop: make(chan struct{})}
	if s, ok := readCPU(); ok {
		c.samples = append(c.samples, s)
	}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(cpuSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
			if s, ok := readCPU(); ok {
				c.samples = append(c.samples, s)
			}
		}
	}()
	return c
}

// close stops the sampler and returns its samples.
func (c *cpuSampler) close() []CPUSample {
	close(c.stop)
	c.done.Wait()
	if s, ok := readCPU(); ok {
		c.samples = append(c.samples, s)
	}
	return c.samples
}

// stealShare is the share of CPU time stolen between the samples
// nearest to from and to (Unix nanoseconds), or -1 when the samples do
// not cover the span.
func stealShare(samples []CPUSample, from, to int64) float64 {
	a, b := -1, -1
	for i, s := range samples {
		if s.T <= from {
			a = i
		}
		if b < 0 && s.T >= to {
			b = i
		}
	}
	if a < 0 || b < 0 || samples[b].Total <= samples[a].Total {
		return -1
	}
	return float64(samples[b].Steal-samples[a].Steal) / float64(samples[b].Total-samples[a].Total)
}

// stealLimit is the steal share above which a measurement window counts
// as disturbed by a neighbour. On a quiet host steal stays under 1%; a
// neighbour's load shows as 4-20%, and the requests of such a window run
// up to a third slower.
const stealLimit = 0.02

// quiet returns the indices, in order, of the windows a run's figures
// are taken from: every window whose steal share is at most stealLimit
// (an unknown share, -1, counts as quiet), or, when fewer than half of
// them are, the half with the least steal. The choice rests on the
// host's counters alone, never on what the windows measured.
func quiet(steal []float64) []int {
	var idx []int
	for i, s := range steal {
		if s <= stealLimit {
			idx = append(idx, i)
		}
	}
	if 2*len(idx) >= len(steal) {
		return idx
	}
	idx = idx[:0]
	for i := range steal {
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(steal)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the indices idx.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}
