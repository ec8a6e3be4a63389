package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a p99
// read off fewer than ten slower samples is one outlier, not a tail.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank.
// It refuses a percentile that has fewer than minTail samples beyond it, so
// a p99 needs at least 1000 samples. samples is sorted in place.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if n == 0 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, max(n-rank, 0), minTail)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value (mean of the two middle values for an
// even count); xs is sorted in place. It is 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// latency summarises one closed-loop operation's host-time latencies.
type latency struct {
	n        int
	p50, p99 float64 // milliseconds
}

// summarise applies the percentile rule to latencies given in milliseconds.
func summarise(ms []float64) (latency, error) {
	p50, err := percentile(ms, 0.50)
	if err != nil {
		return latency{}, err
	}
	p99, err := percentile(ms, 0.99)
	if err != nil {
		return latency{}, err
	}
	return latency{n: len(ms), p50: p50, p99: p99}, nil
}
