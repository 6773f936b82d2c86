package profile_test

import (
	"reflect"
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// executorIntensities is SampleIntensities as it was when it counted through
// element.Executor: RunStats normalized by the injected packet count. It is
// kept, in this test file only, as what TestIntensitiesFromTrace holds the
// trace's counts to.
func executorIntensities(t *testing.T, g *element.Graph, batches []*netpkt.Batch) *profile.Intensities {
	t.Helper()
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	injected, bytes := 0, 0
	for _, b := range batches {
		injected += b.Len()
		bytes += b.Bytes()
		if _, err := x.RunBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	out := &profile.Intensities{
		Node:        make(map[element.NodeID]float64),
		Edge:        make(map[element.EdgeKey]float64),
		AvgPktBytes: float64(bytes) / float64(injected),
	}
	for id, n := range x.Stats.NodePackets {
		out.Node[id] = float64(n) / float64(injected)
	}
	for ek, n := range x.Stats.EdgePackets {
		out.Edge[ek] = float64(n) / float64(injected)
	}
	x.Reset()
	return out
}

// deployedGraph is the graph core.Deploy builds for the chain, sequential or
// with its parallel stages formed.
func deployedGraph(t *testing.T, text string, parallel bool) *element.Graph {
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

// Intensities derived from a trace are the executor's, map keys included,
// so the pass that prices a plan can be the pass that samples its traffic:
// the benchmark chains sequential and parallelized (ids,probe,firewall:200
// is the diamond), a two-port classifier, one output port feeding two
// successors, and a firewall that drops.
func TestIntensitiesFromTrace(t *testing.T) {
	type shape struct {
		name  string
		build func() *element.Graph
	}
	var shapes []shape
	for _, text := range []string{"ipv4", "firewall:1000,ipv4,nat", "ipsec,ipv4,ids", "ids,probe,firewall:200"} {
		for _, par := range []bool{false, true} {
			text, par := text, par
			name := text + "/sequential"
			if par {
				name = text + "/parallelized"
			}
			shapes = append(shapes, shape{name, func() *element.Graph { return deployedGraph(t, text, par) }})
		}
	}
	shapes = append(shapes,
		shape{"classifier", func() *element.Graph {
			g := element.NewGraph()
			src := g.Add(element.NewFromDevice("src"))
			cls := g.Add(element.NewClassifier("cls", "odd-flows", 2,
				func(p *netpkt.Packet) int { return int(p.FlowID & 1) }))
			g.MustConnect(src, 0, cls)
			dst := g.Add(element.NewToDevice("dst"))
			for port, f := range []*nf.NF{nf.NewIDS("ids", spec.DefaultPatterns, false), nf.NewNAT("nat", 0x01020304)} {
				entry, exit := f.Build(g, f.Name)
				g.MustConnect(cls, port, entry)
				g.MustConnect(exit, 0, dst)
			}
			return g
		}},
		shape{"fan-out", func() *element.Graph {
			// NAT's exit port feeds a counter and a painter; each reaches
			// the sink, so every batch arrives there twice.
			g := element.NewGraph()
			src := g.Add(element.NewFromDevice("src"))
			f := nf.NewNAT("nat", 0x01020304)
			entry, exit := f.Build(g, f.Name)
			g.MustConnect(src, 0, entry)
			dst := g.Add(element.NewToDevice("dst"))
			for _, el := range []element.Element{element.NewCounter("a"), element.NewPaint("b", 3)} {
				id := g.Add(el)
				g.MustConnect(exit, 0, id)
				g.MustConnect(id, 0, dst)
			}
			return g
		}},
		shape{"dropping-firewall", func() *element.Graph {
			g := element.NewGraph()
			src := g.Add(element.NewFromDevice("src"))
			f := nf.NewFirewall("fw", &acl.List{Rules: []acl.Rule{{
				SrcPort: acl.PortRange{Lo: 0, Hi: 32767}, DstPort: acl.AnyPort,
				ProtoAny: true, Action: acl.Deny,
			}}, DefaultAction: acl.Permit}, false)
			entry, exit := f.Build(g, f.Name)
			g.MustConnect(src, 0, entry)
			g.MustConnect(exit, 0, g.Add(element.NewToDevice("dst")))
			return g
		}},
	)

	tcfg := traffic.Config{Size: traffic.IMIX{}, Seed: 3, Flows: 256,
		Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sample := traffic.NewGenerator(tcfg).Batches(12, 32)
			clone := func() []*netpkt.Batch {
				out := make([]*netpkt.Batch, len(sample))
				for i, b := range sample {
					out[i] = b.Clone()
				}
				return out
			}
			g := sh.build()
			want := executorIntensities(t, g, clone())
			got, err := profile.SampleIntensities(sh.build(), clone())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("from the trace %+v\n\texecutor %+v", got, want)
			}
			if dst := element.NodeID(g.Len() - 1); sh.name == "dropping-firewall" && want.Node[dst] >= 1 {
				t.Errorf("the sink sees %v of the traffic: the firewall dropped nothing", want.Node[dst])
			}
		})
	}
}
