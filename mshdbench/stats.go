package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported; with fewer, the percentile is one or two outliers and is
// reported as missing.
const tailSamples = 10

// summary is a timing distribution reduced to what the benchmark reports:
// the sample count, the median, and the p99 when it is supported.
type summary struct {
	N      int
	Median float64
	P99    float64
	HasP99 bool
}

// summarize reduces xs (which it sorts in place).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		s.Median = xs[n/2]
	} else {
		s.Median = (xs[n/2-1] + xs[n/2]) / 2
	}
	if supported(n, 0.99) {
		s.P99 = nearestRank(xs, 0.99)
		s.HasP99 = true
	}
	return s
}

// nearestRank returns the q-quantile of sorted xs by the nearest-rank
// rule: the smallest sample with at least a q share of samples at or
// below it.
func nearestRank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supported reports whether the nearest-rank q-quantile of n samples has
// at least tailSamples samples beyond it.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= tailSamples
}

// rateWindows is how many equal-count windows a timed phase's replies are
// split into for the windowed throughput diagnostic (see windowRates), and
// windowOps the fewest replies one window may hold, so a window always
// spans several steps.
const (
	rateWindows = 20
	windowOps   = 12
)

// windowRates splits a phase's replies, in arrival order, into n windows
// of equal count and returns each window's weight ÷ seconds, the windows
// tiling the phase from its start: done holds the arrival offsets from
// the phase start (sorted), weight what each reply delivered. The gated
// throughput is the whole phase's; the median of these rates is printed
// beside it, and a gap between the two shows that a burst — a neighbour's
// load, a stolen vCPU, a costly opening round — hit part of the phase.
func windowRates(done []time.Duration, weight []float64, n int) []float64 {
	n = max(min(n, len(done)/windowOps), 1)
	rates := make([]float64, 0, n)
	prev := time.Duration(0)
	for w := 0; w < n; w++ {
		lo, hi := w*len(done)/n, (w+1)*len(done)/n
		sum := 0.0
		for _, x := range weight[lo:hi] {
			sum += x
		}
		if span := done[hi-1] - prev; span > 0 {
			rates = append(rates, sum/span.Seconds())
		}
		prev = done[hi-1]
	}
	return rates
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return summarize(c).Median
}
