package dataplane

// BenchmarkPipelineMetricsOverhead measures the throughput cost of the
// per-element metrics layer by running the same graph and traffic with
// metrics off and on. The acceptance bar is <5% (EXPERIMENTS.md records a
// run). Input batches are cloned per iteration so both modes pay the same
// clone cost and it cancels out of the comparison.

import (
	"context"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/stats"
	"nfcompass/internal/traffic"
)

func benchRun(b *testing.B, g *element.Graph, base []*netpkt.Batch, cfg Config) {
	var pkts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := make([]*netpkt.Batch, len(base))
		for j, bb := range base {
			in[j] = bb.Clone()
		}
		b.StartTimer()
		_, p, err := RunBatches(context.Background(), g, cfg, in)
		if err != nil {
			b.Fatal(err)
		}
		pkts += int64(p.Stats.OutPackets.Load())
	}
	b.StopTimer()
	if pkts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	}
}

// The light router/NAT chain is the adversarial case: per-packet element
// work is tens of nanoseconds, so the fixed per-hop accounting cost is
// maximally visible.
func BenchmarkPipelineMetricsOverhead(b *testing.B) {
	g := testChainGraph()
	base := genBatches(64, 64, 21)
	b.Run("metrics=off", func(b *testing.B) { benchRun(b, g, base, Config{}) })
	b.Run("metrics=on", func(b *testing.B) { benchRun(b, g, base, Config{Metrics: true}) })
}

// The representative case: a paper-style NF chain (firewall, router, NAT,
// IDS) whose per-packet work dwarfs the per-batch accounting.
func BenchmarkPipelineMetricsOverheadNF(b *testing.B) {
	nfs, err := spec.Parse("firewall:200,ipv4,nat,ids", 5)
	if err != nil {
		b.Fatal(err)
	}
	g, _, _ := nf.BuildChain(nfs)
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.Fixed(256), Seed: 5, Flows: 128,
		MatchTokens: []string{"attack", "exploit"},
	})
	base := gen.Batches(16, 64)
	b.Run("metrics=off", func(b *testing.B) { benchRun(b, g, base, Config{}) })
	b.Run("metrics=on", func(b *testing.B) { benchRun(b, g, base, Config{Metrics: true}) })
}

// BenchmarkHistogramAdd isolates the per-observation cost of the
// concurrent histogram, the hottest metrics primitive.
func BenchmarkHistogramAdd(b *testing.B) {
	h := stats.NewConcurrentHistogram(stats.DefaultLatencyBoundsNs())
	b.RunParallel(func(pb *testing.PB) {
		v := 100.0
		for pb.Next() {
			h.Add(v)
			v += 137
			if v > 5e8 {
				v = 100
			}
		}
	})
}
