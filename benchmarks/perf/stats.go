package main

import (
	"math/bits"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the driver applies to the ten per-seed values of
// each metric. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Log-bucket histogram geometry: values below 64 get a bucket each; above
// that every power of two is split into 32 equal sub-buckets, so a bucket is
// at most 3.1 % wide and quantiles interpolate inside it. 1216 buckets reach
// 2^42 ns (over an hour).
const (
	histSub     = 32
	histBuckets = 1216
)

type logHist [histBuckets]uint32

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	e := bits.Len64(u) - 6
	if e <= 0 {
		return int(u)
	}
	i := e*histSub + int(u>>uint(e))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	m := uint64(i%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *logHist) add(v int64) { h[histIndex(v)]++ }

func (h *logHist) total() uint64 {
	var n uint64
	for _, c := range h {
		n += uint64(c)
	}
	return n
}

func (h *logHist) merge(o *logHist) {
	for i, c := range o {
		h[i] += c
	}
}

// quantile returns the q-quantile (0..1) with linear interpolation inside
// the bucket that holds it; 0 for an empty histogram.
func (h *logHist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for i, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := histBounds(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// midmean is the interquartile mean: the average of the middle half of xs.
// It is as robust as the median against disturbed windows (up to a quarter
// of them on either side), and it averages what the median discards: on one
// P the plane delivers in bursts of about 100 batches, so a window's own
// rate carries a few percent of burst-boundary error in either direction.
func midmean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := n/4, n-n/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}
