package graph_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nfcompass/internal/core"
	"nfcompass/internal/graph"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/profile"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// expansion is the partitioning view core.Allocate hands the partitioners
// for the chain, deployed and sampled on batches of the traffic.
func expansion(tb testing.TB, text string, opt core.Options, tcfg traffic.Config, batches int) *graph.WGraph {
	tb.Helper()
	chain, err := spec.Parse(text, 1)
	if err != nil {
		tb.Fatal(err)
	}
	p := hetsim.DefaultPlatform()
	sample := traffic.NewGenerator(tcfg).Batches(batches, 64)
	clone := func() []*netpkt.Batch {
		out := make([]*netpkt.Batch, len(sample))
		for i, b := range sample {
			out[i] = b.Clone()
		}
		return out
	}
	d, err := core.Deploy(chain, p, sample, opt)
	if err != nil {
		tb.Fatal(err)
	}
	dict, err := profile.OfflineProfile(p, d.Costs, d.Graph, profile.OfflineConfig{BatchSize: 64, Sample: sample})
	if err != nil {
		tb.Fatal(err)
	}
	in, err := profile.SampleIntensities(d.Graph, clone())
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := core.Expand(d.Graph, dict, in, p, d.Costs, 64, core.DefaultDelta)
	if err != nil {
		tb.Fatal(err)
	}
	return ex.W
}

// refineBoth runs Refine and the full-Cost reference from copies of start.
func refineBoth(g *graph.WGraph, start graph.Partition, passes int) (got, want graph.Partition, gotCost, wantCost float64) {
	got = append(graph.Partition(nil), start...)
	want = append(graph.Partition(nil), start...)
	gotCost = graph.Refine(g, got, passes)
	wantCost = graph.ReferenceRefine(g, want, passes)
	return got, want, gotCost, wantCost
}

// referenceMultilevel is PartitionMultilevel with the reference's Refine.
func referenceMultilevel(g *graph.WGraph) graph.Partition {
	type level struct {
		g *graph.WGraph
		m []int
	}
	var levels []level
	cur := g
	for cur.Len() > 24 {
		next, m, ok := graph.Coarsen(cur)
		if !ok {
			break
		}
		levels = append(levels, level{cur, m})
		cur = next
	}
	p := graph.GreedyInitial(cur)
	graph.ReferenceRefine(cur, p, 8)
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fine := make(graph.Partition, lv.g.Len())
		for v := range fine {
			fine[v] = p[lv.m[v]]
			if f := lv.g.Pinned(v); f != nil {
				fine[v] = *f
			}
		}
		graph.ReferenceRefine(lv.g, fine, 4)
		p = fine
	}
	return p
}

// Refine makes the full-Cost loop's moves. On seeded random graphs with
// integer weights, where every sum is exact, and with real ones, and on
// every partitioning graph the benchmark chains, the
// CLI's example chain and the Fig. 15 shapes produce — at every multilevel
// coarsening, from the all-CPU and the greedy start — Refine and the
// reference give identical partitions and costs, and so do the multilevel
// partitioner core.Allocate runs and its reference. (The expansion's
// instances of one element are exact ties whose order only the full sums'
// rounding decides; pricing trials incrementally alone flipped some of them
// on ipv4, firewall:1000,ipv4,nat and Fig. 15's IPv4.)
func TestRefineMatchesReference(t *testing.T) {
	for _, weights := range []struct {
		name string
		draw func(rng *rand.Rand, max int) float64
	}{
		{"integer-weights", func(rng *rand.Rand, max int) float64 { return float64(rng.Intn(max)) }},
		{"real-weights", func(rng *rand.Rand, max int) float64 { return rng.Float64() * float64(max) }},
		// Tenths: many equal costs that the two summation orders round apart.
		{"tenths", func(rng *rand.Rand, max int) float64 { return float64(rng.Intn(max)) / 10 }},
	} {
		t.Run(weights.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			for trial := 0; trial < 300; trial++ {
				n := 2 + rng.Intn(40)
				g := graph.NewWGraph(n)
				for v := 0; v < n; v++ {
					g.SetNodeWeight(v, weights.draw(rng, 200), weights.draw(rng, 200))
					switch rng.Intn(8) {
					case 0:
						g.Pin(v, graph.CPU)
					case 1:
						g.Pin(v, graph.GPU)
					}
				}
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if rng.Float64() < 0.3 {
							_ = g.AddEdge(u, v, weights.draw(rng, 50))
						}
					}
				}
				start := g.InitialPartition()
				for v := range start {
					if g.Pinned(v) == nil && rng.Intn(2) == 0 {
						start[v] = graph.GPU
					}
				}
				for _, passes := range []int{1, 2, 8} {
					got, want, gc, wc := refineBoth(g, start, passes)
					if !reflect.DeepEqual(got, want) || gc != wc {
						t.Fatalf("trial %d, %d passes: %v cost %v, reference %v cost %v", trial, passes, got, gc, want, wc)
					}
				}
			}
		})
	}

	imix := func(seed int64) traffic.Config {
		return traffic.Config{Size: traffic.IMIX{}, Seed: seed, Flows: 512,
			Payload: traffic.PayloadRandom, MatchTokens: spec.DefaultPatterns}
	}
	fixed := func(size int) traffic.Config {
		c := imix(5)
		c.Size = traffic.Fixed(size)
		return c
	}
	fig15 := core.DefaultOptions()
	fig15.Parallelize, fig15.Synthesize = false, false
	v6 := imix(100)
	v6.IPv6 = true
	for _, c := range []struct {
		name string
		opt  core.Options
		tcfg traffic.Config
	}{
		{"ipv4", core.DefaultOptions(), fixed(64)},
		{"firewall:1000,ipv4,nat", core.DefaultOptions(), imix(1)},
		{"ipsec,ipv4,ids", core.DefaultOptions(), fixed(1024)},
		{"ids,probe,firewall:200", core.DefaultOptions(), fixed(512)},
		{"firewall:1000,ipv4,nat,ids", core.DefaultOptions(), fixed(256)},
		{"fig15/ipv4", fig15, imix(100)},
		{"fig15/ipv6", fig15, v6},
		{"fig15/ipsec", fig15, imix(100)},
		{"fig15/ids", fig15, imix(100)},
		{"fig15/ipv4,ipsec", fig15, imix(100)},
		{"fig15/ipsec,ids", fig15, imix(100)},
	} {
		t.Run(c.name, func(t *testing.T) {
			text, _ := strings.CutPrefix(c.name, "fig15/")
			w := expansion(t, text, c.opt, c.tcfg, 40)
			if got, _ := graph.PartitionMultilevel(w); !reflect.DeepEqual(got, referenceMultilevel(w)) {
				t.Errorf("multilevel: %v, reference %v", got, referenceMultilevel(w))
			}
			for level, depth := w, 0; ; depth++ {
				for _, s := range []struct {
					name  string
					start graph.Partition
				}{{"all-cpu", level.InitialPartition()}, {"greedy", graph.GreedyInitial(level)}} {
					for _, passes := range []int{2, 4, 8} {
						if got, want, gc, wc := refineBoth(level, s.start, passes); !reflect.DeepEqual(got, want) || gc != wc {
							t.Errorf("level %d (%d nodes), %s start, %d passes: %v (cost %v), reference %v (cost %v)",
								depth, level.Len(), s.name, passes, got, gc, want, wc)
						}
					}
				}
				if level.Len() <= 24 { // PartitionMultilevel's coarsening floor
					break
				}
				next, _, ok := graph.Coarsen(level)
				if !ok {
					break
				}
				level = next
			}
		})
	}
}

// BenchmarkRefine refines telco_churn's partitioning graph from the greedy
// start, as PartitionKL does.
func BenchmarkRefine(b *testing.B) {
	g := expansion(b, "firewall:1000,ipv4,nat", core.DefaultOptions(),
		traffic.Config{Size: traffic.IMIX{}, Seed: 1, Flows: 4096}, 120)
	start := graph.GreedyInitial(g)
	p := make(graph.Partition, len(start))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p, start)
		graph.Refine(g, p, 8)
	}
}
