package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 10, 10, 10}, 10, 10},
	}
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be defined")
	}
}

func TestSpread(t *testing.T) {
	sp, ok := spread([]float64{1, 2, 3, 4, 5})
	if !ok || math.Abs(sp-1) > 1e-12 { // (4.5 - 1.5) / 3
		t.Errorf("spread = %v, %v; want 1", sp, ok)
	}
	if sp, ok := spread([]float64{7, 7, 7}); !ok || sp != 0 {
		t.Errorf("spread of equal values = %v, %v; want 0", sp, ok)
	}
	if _, ok := spread([]float64{0, 0}); ok {
		t.Error("spread around a zero median should not be defined")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{7}); math.Abs(got-7) > 1e-12 {
		t.Errorf("geomean(7) = %v", got)
	}
	if !math.IsNaN(geomean(nil)) || !math.IsNaN(geomean([]float64{1, 0})) {
		t.Error("geomean of no values or a zero should be NaN")
	}
}
