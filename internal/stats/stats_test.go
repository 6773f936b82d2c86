package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestThroughput(t *testing.T) {
	tp := Throughput{Packets: 1_000_000, Bytes: 64_000_000, Nanos: 1_000_000_000}
	if g := tp.Gbps(); math.Abs(g-0.512) > 1e-9 {
		t.Errorf("Gbps = %v", g)
	}
	if (Throughput{}).Gbps() != 0 {
		t.Error("zero duration should yield zero rates")
	}
}

func TestLatencySampleBasics(t *testing.T) {
	var l LatencySample
	if l.Mean() != 0 || l.Percentile(50) != 0 || l.Variance() != 0 {
		t.Error("empty sample should be all zeros")
	}
	for _, v := range []float64{100, 200, 300, 400, 500} {
		l.Add(v)
	}
	if m := l.Mean(); m != 300 {
		t.Errorf("Mean = %v", m)
	}
	if p := l.Percentile(50); p != 300 {
		t.Errorf("P50 = %v", p)
	}
	if p := l.Percentile(100); p != 500 {
		t.Errorf("P100 = %v", p)
	}
	if mn := l.Percentile(0); mn != 100 {
		t.Errorf("P0 = %v", mn)
	}
	if v := l.Variance(); v != 20000 {
		t.Errorf("Variance = %v", v)
	}
	if sd := l.StdDev(); math.Abs(sd-math.Sqrt(20000)) > 1e-9 {
		t.Errorf("StdDev = %v", sd)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(values []float64, a, b uint8) bool {
		var l LatencySample
		for _, v := range values {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				l.Add(v)
			}
		}
		if len(l.xs) == 0 {
			return true
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return l.Percentile(pa) <= l.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddAfterPercentileKeepsCorrectness(t *testing.T) {
	var l LatencySample
	l.Add(10)
	_ = l.Percentile(50) // triggers sort
	l.Add(5)
	if got := l.Percentile(0); got != 5 {
		t.Errorf("P0 = %v after post-sort Add", got)
	}
}
