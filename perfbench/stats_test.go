package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestSummarizePicksMedianAndTail(t *testing.T) {
	cases := []struct {
		n        int
		p50, p99 float64
		tailPct  float64
		tail     float64
	}{
		// 10 samples: no percentile has ten beyond it.
		{n: 10, p50: 5, p99: 10, tailPct: 0, tail: 0},
		// 20 samples: only the median has ten beyond it.
		{n: 20, p50: 10, p99: 20, tailPct: 50, tail: 10},
		// 100 samples: p90 has exactly ten beyond, p99 only one.
		{n: 100, p50: 50, p99: 99, tailPct: 90, tail: 90},
		// 1000 samples: p99 has exactly ten beyond.
		{n: 1000, p50: 500, p99: 990, tailPct: 99, tail: 990},
		// 10000 samples: p99.9 has exactly ten beyond.
		{n: 10000, p50: 5000, p99: 9900, tailPct: 99.9, tail: 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.P50 != c.p50 || s.P99 != c.p99 || s.TailPct != c.tailPct || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want N=%d P50=%g P99=%g tail p%g=%g",
				c.n, s, c.n, c.p50, c.p99, c.tailPct, c.tail)
		}
	}
}

func TestSummarizeIgnoresInputOrder(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if s := summarize(xs); s.P50 != 5 || s.P99 != 10 {
		t.Fatalf("got %+v", s)
	}
	if xs[0] != 9 {
		t.Fatal("summarize reordered its input")
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	// 98 fast answers and 2 failures: the p99 lands on a failure.
	xs := seq(98)
	xs = append(xs, inf, inf)
	s := summarize(xs)
	if !math.IsInf(s.P99, 1) {
		t.Fatalf("p99 = %g, want +Inf with 2%% failures", s.P99)
	}
	if s.P50 != 50 {
		t.Fatalf("p50 = %g, want 50", s.P50)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %g", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Fatalf("empty median = %g", m)
	}
}
