package main

import (
	"math"
	"sort"
)

// Summary is a latency distribution reduced to the figures the
// benchmark reports: the median, the tail percentile with at least ten
// samples beyond it, and the sample count.
type Summary struct {
	N int
	// P50, P90 and P99 are in milliseconds. A failed operation enters
	// the distribution as +Inf (it misses every latency limit), so any
	// can be +Inf when failures reach that rank.
	P50, P90, P99 float64
	// TailPct is the highest of 50, 90, 99 and 99.9 with at least ten
	// samples beyond it (0 when there are fewer than eleven samples);
	// Tail is the value at that percentile.
	TailPct float64
	Tail    float64
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or NaN when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// rounded so that float error cannot push an exact rank up one.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond is the number of samples ranked strictly above the p-th
// percentile's nearest rank.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// tailPercentile picks the highest standard percentile that still has
// at least ten samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// summarize sorts a copy of ms (milliseconds; +Inf for failures) and
// reduces it.
func summarize(ms []float64) Summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := Summary{N: len(s), P50: percentile(s, 50), P90: percentile(s, 90), P99: percentile(s, 99)}
	if tp := tailPercentile(len(s)); tp > 0 {
		out.TailPct, out.Tail = tp, percentile(s, tp)
	}
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// inf is the latency a shed or failed request enters distributions with.
var inf = math.Inf(1)
