package dataplane

import (
	"context"
	"math"
	"testing"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/stats"
)

// The e2e tracker must record one latency sample per released batch, with
// plausible (positive, bounded-by-elapsed) values.
func TestE2ELatencySingle(t *testing.T) {
	g := testChainGraph()
	_, p, err := RunBatches(context.Background(), g,
		Config{Metrics: true, PreserveOrder: true}, genBatches(30, 16, 5))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.E2E.Count != 30 {
		t.Fatalf("e2e samples = %d, want 30", rep.E2E.Count)
	}
	if rep.E2E.Min <= 0 {
		t.Errorf("min latency = %v, want > 0", rep.E2E.Min)
	}
	if rep.E2E.Max > float64(rep.ElapsedNs) {
		t.Errorf("max latency %v exceeds elapsed %d", rep.E2E.Max, rep.ElapsedNs)
	}
	p50, p99 := rep.E2E.Percentile(50), rep.E2E.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles p50=%v p99=%v", p50, p99)
	}
}

// With metrics off the tracker must not exist: no samples, and the hot path
// stays pointer-check only (the alloc guards assert the zero-cost side).
func TestE2ELatencyDisabled(t *testing.T) {
	g := testChainGraph()
	_, p, err := RunBatches(context.Background(), g, Config{}, genBatches(10, 8, 6))
	if err != nil {
		t.Fatal(err)
	}
	if p.lat != nil {
		t.Fatal("tracker allocated with Config.Metrics off")
	}
	if rep := p.Snapshot(); rep.E2E.Count != 0 {
		t.Fatalf("e2e samples = %d with metrics off", rep.E2E.Count)
	}
}

// The sharded aggregate must expose the replicas' inject→release latency:
// one sample per released batch, every injected part released and every
// packet conserved, however each batch split across shards.
func TestE2ELatencySharded(t *testing.T) {
	const batches, perBatch = 40, 16
	_, sp := runSharded(t,
		func(int) (*element.Graph, error) { return testChainGraph(), nil },
		ShardedConfig{Shards: 3, Config: Config{Metrics: true}},
		seqTraffic(12, batches, perBatch))
	rep := sp.Snapshot()
	if rep.InBatches < batches || rep.OutBatches != rep.InBatches {
		t.Fatalf("boundary batches in=%d out=%d, want >= %d and equal", rep.InBatches, rep.OutBatches, batches)
	}
	if rep.InPackets != batches*perBatch || rep.OutPackets+rep.DropPackets != rep.InPackets {
		t.Fatalf("boundary packets in=%d out=%d drop=%d, want %d conserved",
			rep.InPackets, rep.OutPackets, rep.DropPackets, batches*perBatch)
	}
	if rep.E2E.Count != rep.OutBatches {
		t.Fatalf("boundary e2e samples = %d, want one per released batch (%d)", rep.E2E.Count, rep.OutBatches)
	}
	if rep.E2E.Min <= 0 {
		t.Errorf("min latency = %v", rep.E2E.Min)
	}
}

// The pipeline clock must keep one monotonic origin across Pipeline.Apply
// hot-swaps: ElapsedNs never steps back over a placement epoch change, and
// every batch's e2e sample holds, including those injected under one epoch
// and released under the next — a reset origin would make their
// inject→release interval negative, and the tracker drops those.
func TestTraceOriginSurvivesApply(t *testing.T) {
	const batches, perBatch = 60, 8
	g := hotSwapChain()
	p, err := New(g, Config{
		QueueDepth: 2, PreserveOrder: true, Metrics: true,
		Offload: &OffloadConfig{MaxOutstanding: 2, AggregateLimit: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range p.Out() {
		}
	}()
	swaps := hotSwapAssignments()
	for i, b := range seqTraffic(5, batches, perBatch) {
		if i == batches/2 {
			before := p.Snapshot().ElapsedNs
			if err := p.Apply(swaps[0]); err != nil {
				t.Fatal(err)
			}
			if after := p.Snapshot().ElapsedNs; after < before {
				t.Fatalf("ElapsedNs %d after the swap < %d before it (origin reset across swap?)", after, before)
			}
		}
		p.In() <- b
	}
	p.CloseInput()
	<-collected
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	rep := p.Snapshot()
	if rep.Offload.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", rep.Offload.Epoch)
	}
	if rep.E2E.Count != batches {
		t.Fatalf("e2e samples = %d, want one per batch (%d): a stamp did not survive the swap", rep.E2E.Count, batches)
	}
}

// All shards of a sharded pipeline must share one clock origin, so their
// ElapsedNs and e2e stamps sit on one clock with no per-shard construction
// skew. Each shard's origin is bracketed from its ElapsedNs and the times
// around the read; shared origins leave every bracket a common point, and
// builds slower than any read keep separate origins apart.
func TestTraceOriginSharedAcrossShards(t *testing.T) {
	ref := time.Now()
	sp, err := NewSharded(
		func(int) (*element.Graph, error) {
			time.Sleep(5 * time.Millisecond)
			return testChainGraph(), nil
		},
		ShardedConfig{Shards: 4, Config: Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := time.Duration(math.MinInt64), time.Duration(math.MaxInt64)
	for _, sh := range sp.shards {
		t0 := time.Since(ref)
		elapsed := time.Duration(sh.Snapshot().ElapsedNs)
		t1 := time.Since(ref)
		lo, hi = max(lo, t0-elapsed), min(hi, t1-elapsed)
	}
	if lo > hi {
		t.Fatalf("shard origins differ by at least %v", lo-hi)
	}
}

// AggregateReports must sum the fusion counters and merge the e2e latency
// histograms across shard reports.
func TestAggregateReportsFusionAndLatency(t *testing.T) {
	bounds := stats.DefaultLatencyBoundsNs()
	mkHist := func(counts []uint64, sum, min, max float64) stats.HistSnapshot {
		var n uint64
		full := make([]uint64, len(bounds)+1)
		copy(full, counts)
		for _, c := range full {
			n += c
		}
		return stats.HistSnapshot{Bounds: bounds, Counts: full,
			Count: n, Sum: sum, Min: min, Max: max}
	}
	reps := []*Report{
		{
			InPackets: 100, OutPackets: 100, MetricsEnabled: true,
			E2E: mkHist([]uint64{0, 2, 3}, 5000, 400, 900),
			Offload: OffloadSnapshot{FusedSegments: 4, TransfersSaved: 12,
				OverlapNs: 1000, Epoch: 2, Swaps: 1},
		},
		{
			InPackets: 50, OutPackets: 50, MetricsEnabled: true,
			E2E: mkHist([]uint64{1, 0, 2}, 2500, 200, 800),
			Offload: OffloadSnapshot{FusedSegments: 1, TransfersSaved: 3,
				OverlapNs: 500, Epoch: 3, Swaps: 2},
		},
		{
			InPackets: 25, OutPackets: 25, MetricsEnabled: true,
			E2E: mkHist([]uint64{0, 0, 4}, 3000, 600, 950),
			Offload: OffloadSnapshot{FusedSegments: 2, TransfersSaved: 6,
				OverlapNs: 250, Epoch: 1, Swaps: 0},
		},
	}
	agg := AggregateReports(reps)

	if agg.Offload.FusedSegments != 7 {
		t.Errorf("FusedSegments = %d, want 7", agg.Offload.FusedSegments)
	}
	if agg.Offload.TransfersSaved != 21 {
		t.Errorf("TransfersSaved = %d, want 21", agg.Offload.TransfersSaved)
	}
	if agg.Offload.OverlapNs != 1750 {
		t.Errorf("OverlapNs = %d, want 1750", agg.Offload.OverlapNs)
	}
	if agg.Offload.Swaps != 3 {
		t.Errorf("Swaps = %d, want 3", agg.Offload.Swaps)
	}
	if agg.Offload.Epoch != 3 {
		t.Errorf("Epoch = %d, want max 3", agg.Offload.Epoch)
	}
	if agg.InPackets != 175 || agg.OutPackets != 175 {
		t.Errorf("boundary totals = %d/%d", agg.InPackets, agg.OutPackets)
	}

	if agg.E2E.Count != 12 {
		t.Fatalf("merged e2e count = %d, want 12", agg.E2E.Count)
	}
	if agg.E2E.Sum != 10500 {
		t.Errorf("merged e2e sum = %v, want 10500", agg.E2E.Sum)
	}
	if agg.E2E.Min != 200 || agg.E2E.Max != 950 {
		t.Errorf("merged min/max = %v/%v, want 200/950", agg.E2E.Min, agg.E2E.Max)
	}
	wantCounts := []uint64{1, 2, 9}
	for i, want := range wantCounts {
		if agg.E2E.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, agg.E2E.Counts[i], want)
		}
	}
}
