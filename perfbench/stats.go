package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie strictly beyond a reported
// percentile; with fewer, the tail the percentile claims to describe is
// made of a handful of samples and the figure is refused.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1): the
// smallest sample with at least q·n samples at or below it. It refuses,
// with an error, when fewer than minBeyond samples lie beyond that rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile q=%g over %d samples: undefined", q, n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("percentile q=%g over %d samples: only %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle sample (the mean of the two middle ones for an
// even count); zero for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
