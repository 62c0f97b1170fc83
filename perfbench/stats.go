package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// method the acceptance spread is defined with. It needs at least two
// values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), true
}

// spread is the interquartile range of xs as a share of its median:
// the run-to-run noise figure every end-to-end bound is checked
// against.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// geomean is the geometric mean of positive values, or NaN when xs is
// empty or holds a value <= 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
