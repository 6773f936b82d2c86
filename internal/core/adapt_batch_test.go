package core

import (
	"strings"
	"testing"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/stats"
	"nfcompass/internal/traffic"
)

// fakeBatchRuntime is a Runtime that also exposes a scripted e2e latency
// histogram, standing in for a live pipeline's tracker.
type fakeBatchRuntime struct {
	snap stats.HistSnapshot
}

func (f *fakeBatchRuntime) Apply(hetsim.Assignment) error { return nil }

func (f *fakeBatchRuntime) E2E() stats.HistSnapshot { return f.snap }

// cumulative builds a snapshot with the standard 3-bound bucket layout.
func cumulative(counts [4]uint64, sum float64) stats.HistSnapshot {
	var total uint64
	for _, c := range counts {
		total += c
	}
	return stats.HistSnapshot{
		Bounds: []float64{1_000, 10_000, 100_000},
		Counts: counts[:], Count: total, Sum: sum,
		Min: 500, Max: 200_000,
	}
}

// TestAdaptBatchAIMD drives the interference-aware batch controller through
// a calm window (grow), an interference window (halve), and repeated
// interference (clamped at MinBatch), checking every resize is journaled.
func TestAdaptBatchAIMD(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	rt := &fakeBatchRuntime{}
	a.Attach(rt)
	start := a.BatchSize()
	if start != 64 {
		t.Fatalf("initial batch = %d, want the configured 64", start)
	}

	// Calm window: all samples under 1µs. Establishes the baseline and
	// grows additively.
	rt.snap = cumulative([4]uint64{100, 0, 0, 0}, 50_000)
	a.adaptBatch()
	if got := a.BatchSize(); got != start+a.MinBatch {
		t.Fatalf("after calm window batch = %d, want %d", got, start+a.MinBatch)
	}

	// Interference window: the delta is 100 samples in the overflow bucket
	// — p99 far beyond baseline×ShrinkFactor — so the batch halves.
	rt.snap = cumulative([4]uint64{100, 0, 0, 100}, 15_050_000)
	a.adaptBatch()
	if got := a.BatchSize(); got != (start+a.MinBatch)/2 {
		t.Fatalf("after interference batch = %d, want %d", got, (start+a.MinBatch)/2)
	}

	// Sustained interference can never push below MinBatch.
	counts := [4]uint64{100, 0, 0, 100}
	for i := 0; i < 6; i++ {
		counts[3] += 100
		rt.snap = cumulative(counts, rt.snap.Sum+15_000_000)
		a.adaptBatch()
	}
	if got := a.BatchSize(); got != a.MinBatch {
		t.Fatalf("sustained interference batch = %d, want MinBatch %d", got, a.MinBatch)
	}

	if a.BatchResizes < 3 {
		t.Fatalf("BatchResizes = %d, want >= 3", a.BatchResizes)
	}
	text := a.Journal().String()
	if !strings.Contains(text, "batch grow") || !strings.Contains(text, "batch shrink") {
		t.Fatalf("journal missing batch decisions:\n%s", text)
	}
	for _, dec := range a.Journal().Entries() {
		if dec.Reason != "batch grow" && dec.Reason != "batch shrink" {
			continue
		}
		if dec.BatchSize == 0 || dec.PrevBatchSize == 0 || dec.P99Ns == 0 {
			t.Fatalf("batch decision missing fields: %+v", dec)
		}
	}
}

// TestAdaptBatchNeedsWindow: tiny windows (tail-latency noise) must not
// move the batch size, and a runtime without an E2E probe is a no-op.
func TestAdaptBatchNeedsWindow(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	rt := &fakeBatchRuntime{snap: cumulative([4]uint64{0, 0, 0, 4}, 600_000)}
	a.Attach(rt)
	a.adaptBatch()
	if got := a.BatchSize(); got != 64 {
		t.Fatalf("batch moved to %d on a %d-sample window", got, 4)
	}
	a.Attach(nil)
	a.adaptBatch() // nil runtime: must not panic or resize
	if a.BatchResizes != 0 {
		t.Fatalf("BatchResizes = %d, want 0", a.BatchResizes)
	}
}

// TestAdaptBatchThroughObserve checks the controller is wired into the
// Observe heartbeat: an attached runtime reporting calm traffic yields a
// batch decision without any placement drift.
func TestAdaptBatchThroughObserve(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	rt := &fakeBatchRuntime{snap: cumulative([4]uint64{200, 0, 0, 0}, 100_000)}
	a.Attach(rt)
	if _, err := a.Observe(idsSample(traffic.PayloadRandom, 77, 4)); err != nil {
		t.Fatal(err)
	}
	if a.BatchSize() != 64+a.MinBatch {
		t.Fatalf("Observe did not run the batch controller: batch = %d", a.BatchSize())
	}
	if !strings.Contains(a.Journal().String(), "batch grow") {
		t.Fatalf("journal missing the resize:\n%s", a.Journal().String())
	}
}
