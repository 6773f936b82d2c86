package profile

import (
	"math"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func testChain() *element.Graph {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	g, _, _ := nf.BuildChain([]*nf.NF{
		nf.NewIPv4Router("r", trie.BuildDir24_8(&tr), "d"),
		nf.NewIPsecGateway("gw", 1, []byte("0123456789abcdef"), []byte("a")),
		nf.NewIDS("ids", []string{"attack", "evil"}, false),
	})
	return g
}

func TestDictionaryPutLookup(t *testing.T) {
	d := NewDictionary()
	if _, err := d.Lookup("X", 64); err == nil {
		t.Error("empty dictionary lookup succeeded")
	}
	d.Put("IPLookup", 64, Entry{CPUNsPerPkt: 10})
	d.Put("IPLookup", 1500, Entry{CPUNsPerPkt: 30})
	e, err := d.Lookup("IPLookup", 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.CPUNsPerPkt != 10 {
		t.Errorf("nearest bucket wrong: %+v", e)
	}
	e, _ = d.Lookup("IPLookup", 1400)
	if e.CPUNsPerPkt != 30 {
		t.Errorf("nearest bucket wrong: %+v", e)
	}
	if _, err := d.Lookup("Unknown", 64); err == nil {
		t.Error("unknown kind lookup succeeded")
	}
	if kinds := d.Kinds(); len(kinds) != 1 || kinds[0] != "IPLookup" {
		t.Errorf("Kinds = %v", kinds)
	}
}

func TestOfflineProfileChain(t *testing.T) {
	g := testChain()
	p := hetsim.DefaultPlatform()
	cfg := OfflineConfig{PacketSizes: []int{64, 512}, Batches: 4, Seed: 1}
	d, err := OfflineProfile(p, nil, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := d.Kinds()
	if len(kinds) < 4 {
		t.Fatalf("too few kinds profiled: %v", kinds)
	}
	// IPsec must be profiled as compute-heavy and byte-scaled.
	small, err := d.Lookup("IPsecSeal", 64)
	if err != nil {
		t.Fatal(err)
	}
	large, err := d.Lookup("IPsecSeal", 512)
	if err != nil {
		t.Fatal(err)
	}
	if large.CPUNsPerPkt <= small.CPUNsPerPkt {
		t.Errorf("IPsec cost should grow with packet size: %v vs %v",
			small.CPUNsPerPkt, large.CPUNsPerPkt)
	}
	if small.GPUFixedNsPerBatch <= 0 {
		t.Error("no fixed kernel overhead profiled")
	}
	if small.CPUNsPerPkt <= 0 || small.GPUNsPerPkt < 0 {
		t.Errorf("bad entry: %+v", small)
	}
	// The light DecTTL element must profile cheaper than IPsec.
	ttl, err := d.Lookup("DecTTL", 64)
	if err != nil {
		t.Fatal(err)
	}
	if ttl.CPUNsPerPkt >= small.CPUNsPerPkt {
		t.Errorf("DecTTL (%v) should be cheaper than IPsec (%v)",
			ttl.CPUNsPerPkt, small.CPUNsPerPkt)
	}
}

func TestSampleIntensities(t *testing.T) {
	g := testChain()
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: 2})
	in, err := SampleIntensities(g, gen.Batches(4, 32))
	if err != nil {
		t.Fatal(err)
	}
	if in.AvgPktBytes != 128 {
		t.Errorf("AvgPktBytes = %v", in.AvgPktBytes)
	}
	// Source node sees all packets.
	srcSeen := false
	for id, frac := range in.Node {
		if g.Node(id).Traits().Kind == "FromDevice" {
			srcSeen = true
			if frac != 1.0 {
				t.Errorf("source intensity = %v", frac)
			}
		}
		if frac < 0 || frac > 1.0001 {
			t.Errorf("node %d intensity %v out of range", id, frac)
		}
	}
	if !srcSeen {
		t.Error("source node not sampled")
	}
	if len(in.Edge) == 0 {
		t.Error("no edge intensities")
	}
}

func TestSampleIntensitiesEmpty(t *testing.T) {
	g := testChain()
	if _, err := SampleIntensities(g, nil); err == nil {
		t.Error("empty sample accepted")
	}
}

// twoRunEntry is ProfileElement as it was before one trace priced both
// sides: the element runs the traffic once under an all-CPU simulator and,
// from Reset, again on a GPU placement.
func twoRunEntry(t *testing.T, p hetsim.Platform, el element.Element, cfg OfflineConfig, size int) Entry {
	t.Helper()
	run := func(a hetsim.Assignment) (*hetsim.Result, float64) {
		if r, ok := el.(element.Resetter); ok {
			r.Reset()
		}
		sim, err := hetsim.NewSimulator(p, nil, buildFragment(el), a)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]*netpkt.Batch, len(cfg.Sample))
		for i, b := range cfg.Sample {
			in[i] = b.Clone()
		}
		if len(in) == 0 {
			in = traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(size), Seed: cfg.Seed}).Batches(cfg.Batches, cfg.BatchSize)
		}
		total := 0.0
		for _, b := range in {
			total += float64(b.Len())
		}
		res, err := sim.Run(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, total
	}
	e := Entry{TransferBytesPerPkt: float64(size)}
	cpu, total := run(nil)
	e.CPUNsPerPkt = cpu.CPUBusyNs/total - endpointNsPerPkt(p, nil)
	gpu, _ := run(hetsim.Assignment{1: {Mode: hetsim.ModeGPU}})
	if gpu.KernelLaunches > 0 {
		e.GPUFixedNsPerBatch = fixedKernelNs(p)
		marginal := (gpu.GPUBusyNs - e.GPUFixedNsPerBatch*float64(gpu.KernelLaunches)) / total
		marginal -= float64(size)/p.H2DBytesPerNs + float64(size)/p.D2HBytesPerNs
		e.GPUNsPerPkt = math.Max(0, marginal)
	}
	return e
}

// One functional pass prices both sides of an entry: it gives what two runs
// per element, from scratch, give.
func TestProfileMatchesTwoRuns(t *testing.T) {
	p := hetsim.DefaultPlatform()
	sample := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Seed: 9,
		Payload: traffic.PayloadFullMatch, MatchTokens: []string{"attack", "evil"}}).Batches(6, 32)
	for name, cfg := range map[string]OfflineConfig{
		"sample":    {Sample: sample},
		"synthetic": {PacketSizes: []int{64, 512}, Batches: 4, Seed: 1},
	} {
		t.Run(name, func(t *testing.T) {
			g := testChain()
			d, err := OfflineProfile(p, nil, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.defaults()
			sizes := cfg.PacketSizes
			if len(cfg.Sample) > 0 {
				sizes = []int{cfg.sampleMeanSize()}
			}
			for i := 1; i < g.Len()-1; i++ {
				el := g.Node(element.NodeID(i))
				for _, size := range sizes {
					got, err := d.Lookup(el.Traits().Kind, size)
					if err != nil {
						t.Fatal(err)
					}
					if want := twoRunEntry(t, p, el, cfg, size); got != want {
						t.Errorf("%s at %d B: %+v, two runs give %+v", el.Traits().Kind, size, got, want)
					}
				}
			}
		})
	}
}

// A plan's trace prices an element as the offline profile does when the
// element sees the same traffic: on its one-element fragment over fixed
// 512 B packets, DictionaryOf's CPU entry is ProfileElement's (a two-port
// classifier's batch re-organization included), and its GPU
// entry is ProfileElement's less the device-to-host copy of whatever bytes
// the element added (IPsecSeal's ESP encapsulation) — the trace leaves that
// transfer on the out-edge, where the allocator charges it.
func TestDictionaryOfMatchesProfileElement(t *testing.T) {
	p := hetsim.DefaultPlatform()
	sample := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(512), Seed: 3,
		Payload: traffic.PayloadFullMatch, MatchTokens: []string{"attack", "evil"}}).Batches(6, 32)
	clone := func() []*netpkt.Batch {
		out := make([]*netpkt.Batch, len(sample))
		for i, b := range sample {
			out[i] = b.Clone()
		}
		return out
	}
	g := testChain()
	els := []element.Element{element.NewClassifier("cls", "odd-flows", 2,
		func(p *netpkt.Packet) int { return int(p.FlowID & 1) })}
	for i := 1; i < g.Len()-1; i++ {
		els = append(els, g.Node(element.NodeID(i)))
	}
	grew := false
	for _, el := range els {
		kind := el.Traits().Kind
		want, err := ProfileElement(p, nil, el, OfflineConfig{Sample: clone()}, 512)
		if err != nil {
			t.Fatal(err)
		}
		frag := buildFragment(el)
		sim, err := hetsim.NewSimulator(p, nil, frag, nil)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := sim.Execute(clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DictionaryOf(sim, trace)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := el.(element.Resetter); ok {
			r.Reset()
		}
		got, err := d.Lookup(kind, 512)
		if err != nil {
			t.Fatal(err)
		}
		// ProfileElement subtracts the endpoints from the fragment's total;
		// the trace sums the element's own visits. Both are one figure up
		// to rounding.
		if math.Abs(got.CPUNsPerPkt-want.CPUNsPerPkt) > 1e-12*want.CPUNsPerPkt {
			t.Errorf("%s: CPU %v ns/pkt, ProfileElement %v", kind, got.CPUNsPerPkt, want.CPUNsPerPkt)
		}
		if got.GPUFixedNsPerBatch != want.GPUFixedNsPerBatch || got.TransferBytesPerPkt != want.TransferBytesPerPkt {
			t.Errorf("%s: fixed %v, transfer %v B; ProfileElement %v, %v", kind,
				got.GPUFixedNsPerBatch, got.TransferBytesPerPkt, want.GPUFixedNsPerBatch, want.TransferBytesPerPkt)
		}
		svc := sim.ServiceByNode(trace)
		added := svc[2].Bytes - svc[1].Bytes // dst's input less el's
		grew = grew || added > 0
		d2h := float64(added) / float64(svc[1].N) / p.D2HBytesPerNs
		if diff := want.GPUNsPerPkt - got.GPUNsPerPkt; math.Abs(diff-d2h) > 1e-9*want.GPUNsPerPkt {
			t.Errorf("%s: GPU %v ns/pkt, ProfileElement %v: %v apart, want the D2H of %d added bytes, %v",
				kind, got.GPUNsPerPkt, want.GPUNsPerPkt, diff, added, d2h)
		}
	}
	if !grew {
		t.Error("no element of the chain added bytes: the IPsecSeal case is not covered")
	}
}
