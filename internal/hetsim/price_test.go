package hetsim_test

import (
	"math"
	"reflect"
	"testing"

	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// deployedGraph is the graph core.Deploy builds for the chain: synthesized,
// with parallel stages formed into Duplicator/XORMerge diamonds or not.
func deployedGraph(t testing.TB, text string, parallel bool) *element.Graph {
	t.Helper()
	chain, err := spec.Parse(text, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.GTA, opt.Parallelize = false, parallel
	d, err := core.Deploy(chain, hetsim.DefaultPlatform(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph
}

// classifierGraph splits traffic over two ports with different work behind
// each, so visits carry partial batches and the re-organization charge.
func classifierGraph() *element.Graph {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	cls := g.Add(element.NewClassifier("cls", "odd-flows", 2,
		func(p *netpkt.Packet) int { return int(p.FlowID & 1) }))
	g.MustConnect(src, 0, cls)
	dst := g.Add(element.NewToDevice("dst"))
	for port, f := range []*nf.NF{
		nf.NewIDS("ids", spec.DefaultPatterns, false), nf.NewNAT("nat", 0x01020304)} {
		entry, exit := f.Build(g, f.Name)
		g.MustConnect(cls, port, entry)
		g.MustConnect(exit, 0, dst)
	}
	return g
}

// fusedPair places the first fusable edge with two offloadable ends on the
// device: a two-element device-resident segment.
func fusedPair(g *element.Graph) hetsim.Assignment {
	fusable := hetsim.FusableEdges(g)
	for _, e := range g.Edges() {
		if fusable[element.EdgeKey{From: e.From, Port: e.Port, To: e.To}] &&
			g.Node(e.From).Traits().Offloadable && g.Node(e.To).Traits().Offloadable {
			gpu := hetsim.Placement{Mode: hetsim.ModeGPU}
			return hetsim.Assignment{e.From: gpu, e.To: gpu}
		}
	}
	return hetsim.Assignment{}
}

// Price(Execute(sample)) is the pre-split simulator, and one trace prices
// every placement: a trace recorded under one assignment, priced under four
// others, gives each time what the old loop gives from scratch — busy times,
// transfer counts, drop map and every latency sample included.
func TestPriceMatchesRun(t *testing.T) {
	type shape struct {
		name  string
		build func() *element.Graph
		tcfg  traffic.Config
	}
	imix := traffic.Config{Size: traffic.IMIX{}, Seed: 3, Flows: 48,
		Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}
	v6 := imix
	v6.IPv6 = true
	var shapes []shape
	// The four benchmark chains as deployed, sequential and parallelized
	// (ids,probe,firewall:200 and firewall:1000,ipv4,nat form diamonds).
	for _, text := range []string{"ipv4", "firewall:1000,ipv4,nat", "ipsec,ipv4,ids", "ids,probe,firewall:200"} {
		for _, par := range []bool{false, true} {
			text, par := text, par
			name := text + "/sequential"
			if par {
				name = text + "/parallelized"
			}
			shapes = append(shapes, shape{name, func() *element.Graph { return deployedGraph(t, text, par) }, imix})
		}
	}
	// The Fig. 15 shapes.
	for _, text := range []string{"ipv6", "ipsec", "ids", "ipv4,ipsec", "ipsec,ids"} {
		text, tcfg := text, imix
		if text == "ipv6" {
			tcfg = v6
		}
		shapes = append(shapes, shape{"fig15/" + text, func() *element.Graph { return deployedGraph(t, text, false) }, tcfg})
	}
	shapes = append(shapes, shape{"classifier", classifierGraph, imix})

	p := hetsim.DefaultPlatform()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g, ref := sh.build(), sh.build()
			sample := traffic.NewGenerator(sh.tcfg).Batches(12, 32)
			clone := func() []*netpkt.Batch {
				out := make([]*netpkt.Batch, len(sample))
				for i, b := range sample {
					out[i] = b.Clone()
				}
				return out
			}
			assignments := []struct {
				name string
				a    hetsim.Assignment
			}{
				{"all-cpu", hetsim.Assignment{}},
				{"all-gpu", hetsim.AllGPU(g)},
				{"gpu-heavy", hetsim.GPUHeavy(g)},
				{"split-0.3", hetsim.UniformSplit(g, 0.3)},
				{"fused-pair", fusedPair(g)},
			}
			for _, interarrival := range []float64{0, 1500} {
				g.Reset()
				first, err := hetsim.NewSimulator(p, nil, g, assignments[0].a)
				if err != nil {
					t.Fatal(err)
				}
				trace, err := first.Execute(clone(), interarrival)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range assignments {
					sim, err := hetsim.NewSimulator(p, nil, g, c.a)
					if err != nil {
						t.Fatal(err)
					}
					got := sim.Price(trace)

					ref.Reset()
					old, err := hetsim.NewSimulator(p, nil, ref, c.a)
					if err != nil {
						t.Fatal(err)
					}
					want, err := hetsim.ReferenceRun(old, clone(), interarrival)
					if err != nil {
						t.Fatal(err)
					}
					if want.Emitted == 0 {
						t.Fatalf("%s: reference emitted nothing", c.name)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, interarrival %.0f: priced trace %+v\n\tpre-split loop %+v", c.name, interarrival, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkPriceCandidates prices five placements of telco_churn's plan
// from one trace of 120 × 64 IMIX packets, as Deploy prices its candidates.
func BenchmarkPriceCandidates(b *testing.B) {
	g := deployedGraph(b, "firewall:1000,ipv4,nat", false)
	sample := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Seed: 1, Flows: 4096}).Batches(120, 64)
	p := hetsim.DefaultPlatform()
	var sims []*hetsim.Simulator
	for _, a := range []hetsim.Assignment{hetsim.Assignment{}, hetsim.AllGPU(g), hetsim.GPUHeavy(g),
		hetsim.UniformSplit(g, 0.3), fusedPair(g)} {
		sim, err := hetsim.NewSimulator(p, nil, g, a)
		if err != nil {
			b.Fatal(err)
		}
		sims = append(sims, sim)
	}
	trace, err := sims[0].Execute(sample, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sim := range sims {
			sim.Price(trace)
		}
	}
}

// A trace's per-node CPU service is what Price books on the CPU: under an
// all-CPU placement the nodes add up to CPUBusyNs, re-organization of
// multi-port batches (a Duplicator's copies, a classifier's split) included.
func TestServiceByNodeAddsUpToPrice(t *testing.T) {
	imix := traffic.Config{Size: traffic.IMIX{}, Seed: 3, Flows: 48,
		Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}
	graphs := map[string]*element.Graph{"classifier": classifierGraph()}
	for _, text := range []string{"ipv4", "firewall:1000,ipv4,nat", "ipsec,ipv4,ids", "ids,probe,firewall:200"} {
		graphs[text+"/sequential"] = deployedGraph(t, text, false)
		graphs[text+"/parallelized"] = deployedGraph(t, text, true)
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			trace, err := sim.Execute(traffic.NewGenerator(imix).Batches(12, 32), 0)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, ns := range sim.ServiceByNode(trace) {
				sum += ns.CPUNs
			}
			if want := sim.Price(trace).CPUBusyNs; math.Abs(sum-want) > 1e-9*want {
				t.Errorf("nodes add up to %v ns, Price books %v", sum, want)
			}
		})
	}
}
