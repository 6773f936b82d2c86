package dataplane

// Benchmarks for the sharded execution layer and the pooled zero-allocation
// hot path. Numbers from this file are recorded in EXPERIMENTS.md; note
// that sharded speedup is only observable on a multi-core machine
// (runtime.NumCPU() > 1) — on a single hardware thread the shards
// time-slice one core and the benchmark measures injection overhead.

import (
	"context"
	"fmt"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// hotChainGraph is a linear chain of in-place SingleOut elements — the
// shape the zero-allocation steady state is defined on.
func hotChainGraph() *element.Graph {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	chk := g.Add(element.NewCheckIPHeader("chk"))
	ttl := g.Add(element.NewDecTTL("ttl"))
	cnt := g.Add(element.NewCounter("cnt"))
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, ttl)
	g.MustConnect(ttl, 0, cnt)
	g.MustConnect(cnt, 0, dst)
	return g
}

// hotTemplate builds one pristine batch the hot-path loops clone from.
func hotTemplate(n int) *netpkt.Batch {
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcMAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netpkt.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: netpkt.IPv4Addr(0x0a000000 | uint32(i)), DstIP: netpkt.IPv4Addr(0x0a000001),
			SrcPort: uint16(1000 + i), DstPort: 80,
			Payload: make([]byte, 200),
		})
	}
	return netpkt.NewBatch(0, pkts)
}

// TestPooledHotPathAllocs is the regression guard for the pooled hot path:
// in steady state (arena warm), pushing a pooled batch clone through a
// linear chain of SingleOut elements and releasing it at the sink must not
// allocate — standalone, and through a one-replica sharded plane with
// Metrics on (InjectShard → Out() → Release, the path the repo benchmark's
// workloads measure). CI runs this as the benchmark smoke job.
func TestPooledHotPathAllocs(t *testing.T) {
	ctx := context.Background()
	rows := []struct {
		name  string
		start func(t *testing.T) (in func(*netpkt.Batch), out <-chan *netpkt.Batch, stop func() error)
	}{
		{"standalone", func(t *testing.T) (func(*netpkt.Batch), <-chan *netpkt.Batch, func() error) {
			p, err := New(hotChainGraph(), Config{QueueDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			p.Start(ctx)
			return func(b *netpkt.Batch) { p.In() <- b }, p.Out(),
				func() error { p.CloseInput(); return p.Wait() }
		}},
		{"sharded", func(t *testing.T) (func(*netpkt.Batch), <-chan *netpkt.Batch, func() error) {
			sp, err := NewSharded(func(int) (*element.Graph, error) { return hotChainGraph(), nil },
				ShardedConfig{Shards: 1, Config: Config{QueueDepth: 4, Metrics: true}})
			if err != nil {
				t.Fatal(err)
			}
			sp.Start(ctx)
			return func(b *netpkt.Batch) { sp.InjectShard(ctx, 0, b) }, sp.Out(),
				func() error { sp.CloseInput(); return sp.Wait() }
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			in, out, stop := row.start(t)
			tmpl := hotTemplate(32)
			var id uint64
			iter := func() {
				b := tmpl.ClonePooled()
				b.ID = id
				id++
				in(b)
				(<-out).Release()
			}
			for i := 0; i < 64; i++ {
				iter() // warm the arena and the pipeline
			}
			allocs := testing.AllocsPerRun(200, iter)
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if allocs > 0 {
				t.Fatalf("pooled hot path: %.2f allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkPipelineHotPath compares the pooled (arena-backed clone,
// explicit Release at the sink) and unpooled (heap clone, garbage
// collected) hot paths on the linear SingleOut chain. Run with -benchmem:
// the pooled arm is the 0 allocs/op claim.
func BenchmarkPipelineHotPath(b *testing.B) {
	for _, pooled := range []bool{true, false} {
		name := "unpooled"
		if pooled {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			p, err := New(hotChainGraph(), Config{QueueDepth: 4})
			if err != nil {
				b.Fatal(err)
			}
			p.Start(context.Background())
			tmpl := hotTemplate(32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var in *netpkt.Batch
				if pooled {
					in = tmpl.ClonePooled()
				} else {
					in = tmpl.Clone()
				}
				p.In() <- in
				out := <-p.Out()
				if pooled {
					out.Release()
				}
			}
			b.StopTimer()
			p.CloseInput()
			if err := p.Wait(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tmpl.Len()), "ns/pkt")
		})
	}
}

// BenchmarkCloneVsPooled isolates the clone primitives the hot paths are
// built from.
func BenchmarkCloneVsPooled(b *testing.B) {
	tmpl := hotTemplate(32)
	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tmpl.Clone()
		}
	})
	b.Run("ClonePooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tmpl.ClonePooled().Release()
		}
	})
	b.Run("ShallowClone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tmpl.ShallowClone()
		}
	})
}

// BenchmarkShardedPipeline streams a paper-style NF chain (firewall,
// router, NAT, IDS) through 1/2/4/8 replicas, each batch steered by flow.
// On an M-core machine throughput scales up to min(shards, M); shard
// counts past NumCPU only measure scheduler time-slicing.
func BenchmarkShardedPipeline(b *testing.B) {
	nfs, err := spec.Parse("firewall:200,ipv4,nat,ids", 5)
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.Fixed(256), Seed: 5, Flows: 256,
		MatchTokens: []string{"attack", "exploit"},
	})
	base := gen.Batches(64, 32)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			build := func(int) (*element.Graph, error) {
				g, _, _ := nf.BuildChain(nfs)
				return g, nil
			}
			sp, err := NewSharded(build, ShardedConfig{
				Shards: shards,
				Config: Config{QueueDepth: 64},
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			sp.Start(ctx)
			done := make(chan int64)
			go func() {
				var pkts int64
				for out := range sp.Out() {
					pkts += int64(out.Live())
					out.Release()
				}
				done <- pkts
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				injectByFlow(ctx, sp, base[i%len(base)].ClonePooled())
			}
			sp.CloseInput()
			pkts := <-done
			b.StopTimer()
			if err := sp.Wait(); err != nil {
				b.Fatal(err)
			}
			if pkts > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
			}
		})
	}
}
