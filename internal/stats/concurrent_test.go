package stats

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 4 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestConcurrentHistogramExactAggregates(t *testing.T) {
	h := NewConcurrentHistogram([]float64{10, 100, 1000})
	for _, v := range []float64{5, 50, 500, 5000, 50} {
		h.Add(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 5605 {
		t.Fatalf("sum = %g", s.Sum)
	}
	if s.Min != 5 || s.Max != 5000 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	want := []uint64{1, 2, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if m := s.Mean(); m != 1121 {
		t.Fatalf("mean = %g", m)
	}
}

func TestConcurrentHistogramPercentiles(t *testing.T) {
	h := NewConcurrentHistogram(DefaultLatencyBoundsNs())
	// 1000 observations uniform over [0, 100000): percentiles should land
	// within a bucket of the true value.
	for i := 0; i < 1000; i++ {
		h.Add(float64(i * 100))
	}
	s := h.Snapshot()
	p50 := s.Percentile(50)
	if p50 < 25000 || p50 > 75000 {
		t.Fatalf("p50 = %g, want ~50000", p50)
	}
	p99 := s.Percentile(99)
	if p99 < p50 || p99 > s.Max {
		t.Fatalf("p99 = %g out of [p50=%g, max=%g]", p99, p50, s.Max)
	}
	if got := s.Percentile(100); got != s.Max {
		t.Fatalf("p100 = %g, want max %g", got, s.Max)
	}
	// Degenerate cases.
	empty := NewConcurrentHistogram([]float64{1}).Snapshot()
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	one := NewConcurrentHistogram([]float64{10})
	one.Add(3)
	if got := one.Snapshot().Percentile(50); got != 3 {
		t.Fatalf("single-sample p50 = %g (clamping to min/max failed)", got)
	}
}

// Concurrent adders must not lose observations; run with -race in CI.
func TestConcurrentHistogramParallelAdd(t *testing.T) {
	h := NewConcurrentHistogram(DefaultLatencyBoundsNs())
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Add(float64((w*perWriter + i) % 100000))
			}
		}(w)
	}
	// A reader snapshotting mid-flight must always see consistent-enough
	// state (no panics, count <= final).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Count > writers*perWriter {
				t.Errorf("snapshot count %d exceeds total", s.Count)
				return
			}
			_ = s.Percentile(99)
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("count = %d, want %d", s.Count, writers*perWriter)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketTotal, s.Count)
	}
	if math.IsNaN(s.Sum) || s.Sum <= 0 {
		t.Fatalf("sum = %g", s.Sum)
	}
}

func TestPromFormat(t *testing.T) {
	var sb strings.Builder
	PromHeader(&sb, "m_total", "counter", "test metric")
	PromCounter(&sb, "m_total", Labels{"b": "2", "a": "1"}, 42)
	PromGauge(&sb, "g", nil, 1.5)
	h := NewConcurrentHistogram([]float64{10, 100})
	h.Add(5)
	h.Add(50)
	h.Add(500)
	PromHistogram(&sb, "h", Labels{"el": "x"}, h.Snapshot())
	out := sb.String()
	for _, want := range []string{
		"# TYPE m_total counter",
		`m_total{a="1",b="2"} 42`, // labels sorted
		"g 1.5",
		`h_bucket{el="x",le="10"} 1`,
		`h_bucket{el="x",le="100"} 2`,
		`h_bucket{el="x",le="+Inf"} 3`,
		`h_sum{el="x"} 555`,
		`h_count{el="x"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
