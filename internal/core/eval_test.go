package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// Model outputs are a function of (chain, sample), not of how many
// evaluation passes ran before: after Graph.Reset a pass over the same
// sample prices exactly what the first pass priced (IPsecSeal's sequence
// numbers are ciphertext, and ciphertext is what the scanner behind it
// walks), and deploying one chain value twice decides the same thing.
func TestEvaluationIsHermetic(t *testing.T) {
	p := hetsim.DefaultPlatform()
	for _, text := range []string{"ipsec,ids", "ipsec,ipv4,ids"} {
		t.Run(text, func(t *testing.T) {
			chain, err := spec.Parse(text, 1)
			if err != nil {
				t.Fatal(err)
			}
			sample := traffic.NewGenerator(traffic.Config{
				Size: traffic.Fixed(512), Seed: 7, Flows: 64,
				Payload: traffic.PayloadRandom, MatchTokens: spec.DefaultPatterns,
			}).Batches(12, 32)

			deploy := func() (*Deployment, *hetsim.Result) {
				d, err := Deploy(chain, p, cloneBatches(sample), DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Simulate(cloneBatches(sample), 0)
				if err != nil {
					t.Fatal(err)
				}
				d.Graph.Reset()
				return d, res
			}
			d1, first := deploy()
			again, err := d1.Simulate(cloneBatches(sample), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("Simulate, Reset, Simulate on one sample: %.6f then %.6f Gbps, want identical results",
					first.Throughput.Gbps(), again.Throughput.Gbps())
			}
			d2, second := deploy()
			if !reflect.DeepEqual(d1.Assignment, d2.Assignment) || !reflect.DeepEqual(d1.Alloc, d2.Alloc) {
				t.Errorf("two Deploys of one chain: %v / %+v, then %v / %+v", d1.Assignment, d1.Alloc, d2.Assignment, d2.Alloc)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("post-Deploy Simulate: %.6f then %.6f Gbps", first.Throughput.Gbps(), second.Throughput.Gbps())
			}
		})
	}
}

// referenceSelect is candidate validation as it was before one trace priced
// every placement: each candidate runs the whole graph on its own copy of
// the sample. Candidate order and the strict > are Deployment.place's.
func referenceSelect(t *testing.T, d *Deployment, sample []*netpkt.Batch, model hetsim.Assignment) (string, float64, hetsim.Assignment) {
	t.Helper()
	rounded, heavyOnly := make(hetsim.Assignment), make(hetsim.Assignment)
	heavy := make(map[string]bool)
	for _, k := range hetsim.HeavyKinds {
		heavy[k] = true
	}
	for id, pl := range model {
		switch {
		case pl.Mode == hetsim.ModeSplit && pl.GPUFraction >= 0.5:
			rounded[id] = hetsim.Placement{Mode: hetsim.ModeGPU}
		case pl.Mode != hetsim.ModeSplit:
			rounded[id] = pl
		}
		if heavy[d.Graph.Node(id).Traits().Kind] {
			heavyOnly[id] = pl
		}
	}
	bestName, bestGbps := "", -1.0
	var best hetsim.Assignment
	for _, c := range []struct {
		name string
		a    hetsim.Assignment
	}{
		{"model", model}, {"model-rounded", rounded}, {"model-heavy-only", heavyOnly},
		{"cpu-only", hetsim.Assignment{}}, {"gpu-heavy", hetsim.GPUHeavy(d.Graph)},
	} {
		d.Graph.Reset()
		sim, err := hetsim.NewSimulator(d.Platform, d.Costs, d.Graph, c.a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cloneBatches(sample), 0)
		if err != nil {
			t.Fatal(err)
		}
		if g := res.Throughput.Gbps(); g > bestGbps {
			bestName, bestGbps, best = c.name, g, c.a
		}
	}
	d.Graph.Reset()
	return bestName, bestGbps, best
}

// traceDictionary is the dictionary of a fresh functional pass of its own
// over a copy of the sample, leaving g reset.
func traceDictionary(t *testing.T, g *element.Graph, p hetsim.Platform, costs map[string]hetsim.ElemCost,
	sample []*netpkt.Batch) *profile.Dictionary {
	t.Helper()
	sim, err := hetsim.NewSimulator(p, costs, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := sim.Execute(cloneBatches(sample), 0)
	g.Reset()
	if err != nil {
		t.Fatal(err)
	}
	dict, err := profile.DictionaryOf(sim, trace)
	if err != nil {
		t.Fatal(err)
	}
	return dict
}

// referenceDeploy is Deploy's slow path: every plan weighed from a pass of
// its own, sampled by another, five full runs per plan to pick the
// assignment, and the gate simulating both winners again.
func referenceDeploy(t *testing.T, chain []*nf.NF, p hetsim.Platform, sample []*netpkt.Batch, opt Options) *Deployment {
	t.Helper()
	costs := hetsim.DefaultCosts()
	plan := func(stages []Stage) *Deployment {
		g, _, _, err := buildGraph([]plan{{stages: stages}}, opt)
		if err != nil {
			t.Fatal(err)
		}
		d := &Deployment{Graph: g, Stages: stages, Platform: p, Costs: costs}
		dict := traceDictionary(t, g, p, costs, sample)
		in, err := profile.SampleIntensities(g, cloneBatches(sample))
		if err != nil {
			t.Fatal(err)
		}
		assign, rep, err := Allocate(g, dict, in, p, costs, opt.BatchSize, DefaultDelta, opt.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		d.Alloc = rep
		d.Alloc.Selected, _, d.Assignment = referenceSelect(t, d, sample, assign)
		return d
	}
	gbps := func(d *Deployment) float64 {
		res, err := d.Simulate(cloneBatches(sample), 0)
		if err != nil {
			t.Fatal(err)
		}
		d.Graph.Reset()
		return res.Throughput.Gbps()
	}
	var sequential []Stage
	for _, f := range chain {
		sequential = append(sequential, Stage{NFs: []*nf.NF{f}})
	}
	stages := Parallelize(chain)
	d := plan(stages)
	if len(stages) < len(sequential) {
		if seqD := plan(sequential); gbps(d) < 0.9*gbps(seqD) {
			return seqD
		}
	}
	return d
}

// Deploy decides what the slow path decides: same assignment, same
// allocation report, same plan through the gate.
func TestDeployMatchesReference(t *testing.T) {
	p := hetsim.DefaultPlatform()
	udp := func(size traffic.SizeDist) traffic.Config {
		return traffic.Config{Size: size, Seed: 5, Flows: 512,
			Payload: traffic.PayloadRandom, MatchTokens: spec.DefaultPatterns}
	}
	tcp := udp(traffic.Fixed(512))
	tcp.TCP = true
	for _, c := range []struct {
		chain string
		tcfg  traffic.Config
	}{
		{"ipv4", udp(traffic.Fixed(64))},
		{"firewall:1000,ipv4,nat", udp(traffic.IMIX{})},
		{"ipsec,ipv4,ids", udp(traffic.Fixed(1024))},
		{"ids,probe,firewall:200", udp(traffic.Fixed(512))},
		{"firewall:200,ipv4,nat,ids", udp(traffic.IMIX{})},
		{"probe,streamids", tcp},
	} {
		t.Run(c.chain, func(t *testing.T) {
			sample := traffic.NewGenerator(c.tcfg).Batches(40, 64)
			parse := func() []*nf.NF {
				chain, err := spec.Parse(c.chain, 1)
				if err != nil {
					t.Fatal(err)
				}
				return chain
			}
			got, err := Deploy(parse(), p, cloneBatches(sample), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDeploy(t, parse(), p, sample, DefaultOptions())
			if len(got.Stages) != len(want.Stages) {
				t.Fatalf("gate: %d stages, reference %d", len(got.Stages), len(want.Stages))
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Errorf("assignment %v, reference %v", got.Assignment, want.Assignment)
			}
			g, w := got.Alloc, want.Alloc
			if g.Selected != w.Selected || g.Cost != w.Cost || g.CutNs != w.CutNs || g.Instances != w.Instances {
				t.Errorf("alloc %s cost=%v cut=%v instances=%d, reference %s cost=%v cut=%v instances=%d",
					g.Selected, g.Cost, g.CutNs, g.Instances, w.Selected, w.Cost, w.CutNs, w.Instances)
			}
		})
	}
}

// Observe journals the candidate and the measured Gbps the five-run
// validation gives, on the content shift examples/adaptive stages.
func TestAdaptorObserveMatchesReference(t *testing.T) {
	d := adaptDeployment(t)
	a := NewAdaptor(d)
	if _, err := a.Observe(idsSample(traffic.PayloadRandom, 3, 4)); err != nil {
		t.Fatal(err)
	}
	shifted := idsSample(traffic.PayloadFullMatch, 4, 4)

	// What Observe is about to compute, by the slow path, on a twin.
	twin := adaptDeployment(t)
	dict := traceDictionary(t, twin.Graph, twin.Platform, twin.Costs, shifted)
	in, err := profile.SampleIntensities(twin.Graph, cloneBatches(shifted))
	if err != nil {
		t.Fatal(err)
	}
	assign, _, err := Allocate(twin.Graph, dict, in, twin.Platform, twin.Costs, 64, DefaultDelta, AlgoMultilevel)
	if err != nil {
		t.Fatal(err)
	}
	name, gbps, best := referenceSelect(t, twin, shifted, assign)

	if changed, err := a.Observe(cloneBatches(shifted)); err != nil || !changed {
		t.Fatalf("shift: changed=%v err=%v", changed, err)
	}
	ents := a.Journal().Entries()
	last := ents[len(ents)-1]
	if last.Candidate != name || last.MeasuredGbps != gbps || !reflect.DeepEqual(d.Assignment, best) {
		t.Errorf("journaled %s at %v Gbps with %v, reference %s at %v with %v",
			last.Candidate, last.MeasuredGbps, d.Assignment, name, gbps, best)
	}
}

// tap counts the batches it is handed. Its kind is its own, so a pass that
// profiled each kind alone would run it too: every call must be one batch of
// an end-to-end pass over its plan's graph.
type tap struct{ calls int }

func (e *tap) Name() string      { return "tap" }
func (e *tap) NumOutputs() int   { return 1 }
func (e *tap) Signature() string { return "tap" }
func (e *tap) Traits() element.Traits {
	return element.Traits{Kind: "tap", Class: element.ClassShaper}
}
func (e *tap) Process(b *netpkt.Batch) []*netpkt.Batch {
	e.calls++
	return []*netpkt.Batch{b}
}

// One Deploy is a bounded amount of work, done inside the ownership rules.
func TestDeployAllocBudget(t *testing.T) {
	t.Run("budget", deployBudget)
	t.Run("ownership", deployOwnership)
}

// Each plan's graph sees the sample end to end once — the one trace its
// weights, intensities, allocation and every candidate price come from — and
// no other pass runs: 42 passes, 221 MB and 826 k objects before placements
// were priced from a trace, 47.1 MB and 181 k while intensities took a pass
// of their own, 36.1 MB and 138 k while each element kind was profiled alone.
func deployBudget(t *testing.T) {
	const batches = 120
	chain, err := spec.Parse("firewall:1000,ipv4,nat", 1)
	if err != nil {
		t.Fatal(err)
	}
	var taps []*tap
	last := chain[len(chain)-1]
	build := last.Build
	last.Build = func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
		entry, exit := build(g, prefix)
		taps = append(taps, &tap{})
		id := g.Add(taps[len(taps)-1])
		g.MustConnect(exit, 0, id)
		return entry, id
	}
	sample := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Seed: 1, Flows: 4096}).Batches(batches, 64)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := Deploy(chain, hetsim.DefaultPlatform(), sample, DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	objects := after.Mallocs - before.Mallocs
	t.Logf("Deploy allocated %.1f MB in %d objects, %d plans", mb, objects, len(taps))
	if mb > 20 || objects > 75_000 {
		t.Errorf("Deploy allocated %.1f MB in %d objects, budget 20 MB / 75000", mb, objects)
	}
	if len(taps) != 2 || len(d.Stages) != len(chain) {
		t.Fatalf("%d plans built, %d stages deployed: want the gate to build both and keep the sequential one", len(taps), len(d.Stages))
	}
	for i, tp := range taps {
		if tp.calls != batches {
			t.Errorf("plan %d: %d batches through its graph, want one pass of %d", i, tp.calls, batches)
		}
	}
}

// Deploy's evaluation passes obey the ownership rules (DESIGN.md §8): no
// pass sees bytes another released — under pool poisoning a reused buffer
// would change a verdict below — and the default arena, which the
// Duplicator's clones of heap-built sample batches come from, ends where it
// started.
func deployOwnership(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	const text = "ids,probe,firewall:200"
	mkTraffic := func(seed int64, n int) []*netpkt.Batch {
		return traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(512), Seed: seed, Flows: 256,
			Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}).Batches(n, 64)
	}
	deploy := func() *Deployment {
		chain, err := spec.Parse(text, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Deploy(chain, hetsim.DefaultPlatform(), mkTraffic(1, 40), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	outstanding := netpkt.Outstanding()
	d := deploy()
	if got := netpkt.Outstanding(); got != outstanding {
		t.Errorf("default arena: %d packets outstanding after Deploy, %d before", got, outstanding)
	}
	if len(d.Stages) != 1 {
		t.Fatalf("%d stages, want the one parallel stage", len(d.Stages))
	}

	outcomes := func(bs []*netpkt.Batch) map[string]int {
		m := make(map[string]int)
		for _, b := range bs {
			for _, p := range b.Packets {
				if !p.Dropped {
					m[string(p.Data)]++
				}
			}
		}
		return m
	}
	live, _, err := dataplane.RunBatches(context.Background(), d.Graph,
		dataplane.Config{PreserveOrder: true, Assignment: d.Assignment}, mkTraffic(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	x, err := element.NewExecutor(deploy().Graph)
	if err != nil {
		t.Fatal(err)
	}
	var oracle []*netpkt.Batch
	for _, b := range mkTraffic(2, 64) {
		outs, err := x.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range outs {
			oracle = append(oracle, bs...)
		}
	}
	got, want := outcomes(live), outcomes(oracle)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("live run of the deployed graph: %d distinct outputs, executor %d", len(got), len(want))
	}
}
