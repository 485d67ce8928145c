package main

import (
	"math"
	"reflect"
	"testing"
)

func TestStealShare(t *testing.T) {
	samples := []CPUSample{
		{T: 0, Steal: 0, Total: 0},
		{T: 100, Steal: 10, Total: 100},
		{T: 200, Steal: 10, Total: 200},
		{T: 300, Steal: 40, Total: 300},
	}
	for _, c := range []struct {
		from, to int64
		want     float64
	}{
		{0, 100, 0.1},
		{100, 200, 0},
		{150, 250, 0.15}, // widened to the samples around it: 100..300
		{0, 300, 40.0 / 300},
		{250, 400, -1}, // not covered
	} {
		if got := stealShare(samples, c.from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stealShare(%d, %d) = %g, want %g", c.from, c.to, got, c.want)
		}
	}
}

func TestQuietWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		// All quiet, unknown included: every window.
		{[]float64{0, 0.01, -1, 0.02}, []int{0, 1, 2, 3}},
		// Half disturbed: the quiet half.
		{[]float64{0.1, 0, 0.15, 0.005}, []int{1, 3}},
		// Mostly disturbed: the half with the least steal, in order.
		{[]float64{0.2, 0.05, 0.1, 0.01, 0.3}, []int{1, 2, 3}},
	} {
		if got := quiet(c.steal); !reflect.DeepEqual(got, c.want) {
			t.Errorf("quiet(%v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
