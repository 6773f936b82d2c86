package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// This file holds the concurrency-safe metric primitives the live dataplane
// records into while packets are in flight. Unlike LatencySample — a
// single-goroutine benchmark tool — every type
// here is safe for concurrent writers and for readers that snapshot while
// writes continue. All hot-path operations are lock-free (atomic adds and
// CAS loops); there are no mutexes on the packet path.

// Counter is a monotonically increasing atomic counter, padded to a cache
// line so adjacent counters in a registry do not false-share.
type Counter struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes; v occupies the first 8
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// ConcurrentHistogram is a fixed-bucket streaming histogram safe for
// concurrent Add. Bucket bounds are immutable after construction, so Add is
// a binary search plus one atomic increment; sum/min/max maintenance uses
// CAS loops on float bits. It answers percentile queries from a Snapshot by
// linear interpolation within the matched bucket — the live-pipeline
// replacement for the bench-only LatencySample.
type ConcurrentHistogram struct {
	bounds  []float64 // ascending upper bounds; final bucket is +inf
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
	minBits atomic.Uint64 // float64 bits, starts +inf
	maxBits atomic.Uint64 // float64 bits, starts -inf
}

// NewConcurrentHistogram builds a histogram over the given ascending upper
// bounds (one overflow bucket is added).
func NewConcurrentHistogram(bounds []float64) *ConcurrentHistogram {
	h := &ConcurrentHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// DefaultLatencyBoundsNs is an exponential 250ns…500ms bucket layout suited
// to per-batch element processing times.
func DefaultLatencyBoundsNs() []float64 {
	return []float64{
		250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
		2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 5e8,
	}
}

// Add records one observation. Safe for any number of concurrent callers.
func (h *ConcurrentHistogram) Add(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if x >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(x)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if x <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(x)) {
			break
		}
	}
}

// Snapshot captures the current distribution. Concurrent Adds during the
// snapshot may be partially included (each field is individually atomic);
// the result is always internally usable.
func (h *ConcurrentHistogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds, // immutable, shared
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if min := math.Float64frombits(h.minBits.Load()); !math.IsInf(min, 1) {
		s.Min = min
	}
	if max := math.Float64frombits(h.maxBits.Load()); !math.IsInf(max, -1) {
		s.Max = max
	}
	return s
}

// HistSnapshot is a point-in-time copy of a ConcurrentHistogram, the unit
// the dataplane report carries per element.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra overflow
	// entry.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	// Min and Max are exact (tracked separately from buckets); zero when
	// Count is zero.
	Min, Max float64
}

// Merge returns the distribution of s and o combined — the union of two
// independently recorded histograms. Used by the sharded dataplane to sum
// per-replica element histograms into one report. Both snapshots must use
// the same bucket bounds (all dataplane histograms do); on a bounds
// mismatch the larger snapshot wins and the smaller's buckets are dropped
// into its overflow bucket.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	if len(s.Counts) != len(o.Counts) {
		big, small := s, o
		if o.Count > s.Count {
			big, small = o, s
		}
		out := big
		out.Counts = append([]uint64(nil), big.Counts...)
		out.Counts[len(out.Counts)-1] += small.Count
		out.Count += small.Count
		out.Sum += small.Sum
		if small.Min < out.Min {
			out.Min = small.Min
		}
		if small.Max > out.Max {
			out.Max = small.Max
		}
		return out
	}
	out := HistSnapshot{
		Bounds: s.Bounds,
		Counts: make([]uint64, len(s.Counts)),
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		Min:    s.Min,
		Max:    s.Max,
	}
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] + o.Counts[i]
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	return out
}

// Window returns s minus prev bucket-wise: the samples recorded between
// two cumulative snapshots of one histogram. It is how live controllers
// (the adaptor's AIMD batch sizing, the control plane's canary SLO guard)
// turn a monotonically growing latency ring into a per-tick distribution.
// Falls back to s when the shapes disagree (tracker replaced) or prev is
// empty. Min/Max keep the cumulative values: windowed percentiles only
// read Bounds and Counts.
func (s HistSnapshot) Window(prev HistSnapshot) HistSnapshot {
	if prev.Count == 0 || len(s.Counts) != len(prev.Counts) ||
		s.Count < prev.Count {
		return s
	}
	w := s
	w.Counts = make([]uint64, len(s.Counts))
	for i := range s.Counts {
		if s.Counts[i] >= prev.Counts[i] {
			w.Counts[i] = s.Counts[i] - prev.Counts[i]
		}
	}
	w.Count = s.Count - prev.Count
	w.Sum = s.Sum - prev.Sum
	return w
}

// Mean returns the average observation, or 0 with none.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Percentile estimates the p-th percentile (0 < p <= 100) by linear
// interpolation inside the bucket holding the target rank, clamped to the
// exact [Min, Max] range. Returns 0 with no observations.
func (s HistSnapshot) Percentile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := math.Ceil(p / 100 * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > float64(s.Count) {
		rank = float64(s.Count)
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			v := lo
			if hi > lo {
				v = lo + (hi-lo)*(rank-cum)/float64(c)
			}
			return clamp(v, s.Min, s.Max)
		}
		cum += float64(c)
	}
	return s.Max
}

// String implements fmt.Stringer.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%.0f p99=%.0f max=%.0f",
		s.Count, s.Mean(), s.Percentile(50), s.Percentile(99), s.Max)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
