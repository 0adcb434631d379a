package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a tail percentile is reported only where at
// least this many samples lie beyond it, so one outlier cannot set it. Each
// workload fixes its tails ahead of time (TestTailPercentilesFollowRule
// checks them against the rule).
const minBeyond = 10

// rankOf is the 1-based nearest rank of percentile p among n samples: the
// smallest rank with at least p% of the samples at or below it.
func rankOf(n int, p float64) int {
	// The epsilon absorbs float error in p·n, which would otherwise push an
	// exact rank (99.9% of 10000 = 9990) up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the p-th percentile's rank.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

// percentile returns the nearest-rank p-th percentile of samples (sorted in
// place).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rankOf(len(samples), p)-1]
}

// median returns the middle of samples (mean of the middle two for an even
// count); samples are sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
