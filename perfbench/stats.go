package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile-support rule: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// supported reports whether n samples support the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the sample of rank ceil(q*n), clamped to the ends. Zero when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return sorted[rank-1]
}

// tail returns the q-quantile of sorted when the sample supports it,
// and otherwise the highest quantile it does support (1 - 10/n), so a
// reported tail always has at least ten samples beyond it. With fewer
// than eleven samples nothing beyond the median is supported and the
// median is returned. The second result is the quantile actually used.
func tail(sorted []float64, q float64) (float64, float64) {
	n := len(sorted)
	if !supported(n, q) {
		q = max(0.5, 1-float64(minBeyond)/float64(n))
	}
	return quantile(sorted, q), q
}

// sample is a growable set of observations summarised by quantiles.
type sample []float64

func (s *sample) add(v float64)          { *s = append(*s, v) }
func (s *sample) addDur(d time.Duration) { s.add(d.Seconds()) }
func (s sample) sorted() []float64       { c := append([]float64(nil), s...); sort.Float64s(c); return c }

// median returns the 0.5-quantile of s.
func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

// q returns the supported tail quantile of s (see tail).
func (s sample) q(q float64) float64 {
	v, _ := tail(s.sorted(), q)
	return v
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (s sample) len() int { return len(s) }
