package stats

import (
	"math"
	"sort"
)

// Throughput summarizes packets and bytes moved over a duration.
type Throughput struct {
	Packets uint64
	Bytes   uint64
	// Nanos is the elapsed (simulated or wall) time in nanoseconds.
	Nanos int64
}

// Gbps returns throughput in gigabits per second.
func (t Throughput) Gbps() float64 {
	if t.Nanos <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / float64(t.Nanos)
}

// LatencySample collects latency observations (nanoseconds) and answers
// mean / percentile / variance queries. It stores raw samples; experiment
// scales here are small enough that exactness beats approximation.
type LatencySample struct {
	xs     []float64
	sorted bool
}

// Add records one observation in nanoseconds.
func (l *LatencySample) Add(ns float64) {
	l.xs = append(l.xs, ns)
	l.sorted = false
}

// N returns the number of observations.
func (l *LatencySample) N() int { return len(l.xs) }

// Mean returns the average, or 0 with no samples.
func (l *LatencySample) Mean() float64 {
	if len(l.xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range l.xs {
		s += x
	}
	return s / float64(len(l.xs))
}

// Variance returns the population variance.
func (l *LatencySample) Variance() float64 {
	n := len(l.xs)
	if n == 0 {
		return 0
	}
	m := l.Mean()
	s := 0.0
	for _, x := range l.xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation.
func (l *LatencySample) StdDev() float64 { return math.Sqrt(l.Variance()) }

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 with no samples.
func (l *LatencySample) Percentile(p float64) float64 {
	if len(l.xs) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Float64s(l.xs)
		l.sorted = true
	}
	if p <= 0 {
		return l.xs[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l.xs) {
		rank = len(l.xs)
	}
	return l.xs[rank-1]
}
