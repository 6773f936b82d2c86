package core

import (
	"bytes"
	"fmt"
	"strings"
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

func telcoChain() []*nf.NF {
	return []*nf.NF{
		fwNF("fw"),
		routerNF("router"),
		nf.NewNAT("nat", 0x01020304),
	}
}

func sampleBatches(n, size, pkt int, seed int64) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(pkt), Seed: seed})
	return gen.Batches(n, size)
}

func TestDeployFullPipeline(t *testing.T) {
	d, err := Deploy(telcoChain(), hetsim.DefaultPlatform(),
		sampleBatches(4, 32, 128, 1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph == nil || d.Assignment == nil || d.Alloc == nil {
		t.Fatal("incomplete deployment")
	}
	if err := d.Graph.Validate(); err != nil {
		t.Fatalf("deployment graph invalid: %v", err)
	}
	if len(d.Synthesis) == 0 {
		t.Error("no synthesis reports")
	}
	res, err := d.Simulate(sampleBatches(20, 64, 128, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted == 0 {
		t.Error("nothing emitted")
	}
}

func TestDeployEmptyChainRejected(t *testing.T) {
	if _, err := Deploy(nil, hetsim.DefaultPlatform(), nil, DefaultOptions()); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestDeployGTARequiresSample(t *testing.T) {
	if _, err := Deploy(telcoChain(), hetsim.DefaultPlatform(), nil, DefaultOptions()); err == nil {
		t.Error("GTA without sample accepted")
	}
}

// The deployed (parallelized + synthesized) graph must be functionally
// equivalent to the plain sequential chain.
func TestDeployPreservesSemantics(t *testing.T) {
	mkChain := func() []*nf.NF { return telcoChain() }

	plainG, _, plainDst := nf.BuildChain(mkChain())
	x1, err := element.NewExecutor(plainG)
	if err != nil {
		t.Fatal(err)
	}

	opt := DefaultOptions()
	opt.GTA = false // placement does not affect functional output
	d, err := Deploy(mkChain(), hetsim.DefaultPlatform(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := element.NewExecutor(d.Graph)
	if err != nil {
		t.Fatal(err)
	}
	dst2 := d.Graph.Sinks()[0]

	in1 := sampleBatches(6, 32, 128, 3)
	in2 := sampleBatches(6, 32, 128, 3) // identical stream
	for bi := range in1 {
		o1, err := x1.RunBatch(in1[bi])
		if err != nil {
			t.Fatal(err)
		}
		o2, err := x2.RunBatch(in2[bi])
		if err != nil {
			t.Fatal(err)
		}
		b1, b2 := o1[plainDst][0], o2[dst2][0]
		if b1.Live() != b2.Live() {
			t.Fatalf("batch %d live: %d vs %d", bi, b1.Live(), b2.Live())
		}
		for j := range b1.Packets {
			p1, p2 := b1.Packets[j], b2.Packets[j]
			if p1.Dropped != p2.Dropped {
				t.Fatalf("batch %d pkt %d drop mismatch", bi, j)
			}
			if !p1.Dropped && !bytes.Equal(p1.Data, p2.Data) {
				t.Fatalf("batch %d pkt %d bytes differ", bi, j)
			}
		}
	}
}

// A chain of four read-only firewalls must deploy to effective length 1
// (configuration b of Fig. 13) — one Duplicator/XORMerge diamond.
func TestDeployParallelizesFirewalls(t *testing.T) {
	chain := []*nf.NF{fwNF("fw1"), fwNF("fw2"), fwNF("fw3"), fwNF("fw4")}
	opt := DefaultOptions()
	opt.GTA = false
	d, err := Deploy(chain, hetsim.DefaultPlatform(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if EffectiveLength(d.Stages) != 1 {
		t.Fatalf("effective length = %d", EffectiveLength(d.Stages))
	}
	dups, merges := 0, 0
	for i := 0; i < d.Graph.Len(); i++ {
		switch d.Graph.Node(element.NodeID(i)).Traits().Kind {
		case "Duplicator":
			dups++
		case "XORMerge":
			merges++
		}
	}
	if dups != 1 || merges != 1 {
		t.Errorf("dups=%d merges=%d", dups, merges)
	}
}

// GTA anchor (Fig. 15): IPv4 alone gets no offload; IPsec gets offloaded.
func TestAllocateMatchesNFAffinity(t *testing.T) {
	p := hetsim.DefaultPlatform()

	deployFrac := func(chain []*nf.NF, pkt int) float64 {
		d, err := Deploy(chain, p, sampleBatches(4, 64, pkt, 7), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Total offloaded fraction across offloadable elements.
		total, n := 0.0, 0
		for id, pl := range d.Assignment {
			_ = id
			switch pl.Mode {
			case hetsim.ModeGPU:
				total += 1
				n++
			case hetsim.ModeSplit:
				total += pl.GPUFraction
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}

	ipv4Frac := deployFrac([]*nf.NF{routerNF("r")}, 64)
	ipsecFrac := deployFrac([]*nf.NF{
		nf.NewIPsecGateway("gw", 9, []byte("0123456789abcdef"), []byte("a")),
	}, 1024)
	t.Logf("ipv4 offload=%.2f ipsec offload=%.2f", ipv4Frac, ipsecFrac)
	if ipv4Frac > 0.15 {
		t.Errorf("IPv4 should stay on CPU; got %.2f", ipv4Frac)
	}
	if ipsecFrac <= ipv4Frac {
		t.Errorf("IPsec (%.2f) should offload more than IPv4 (%.2f)", ipsecFrac, ipv4Frac)
	}
}

// Every partitioning algorithm must produce a runnable assignment.
func TestAllocateAllAlgorithms(t *testing.T) {
	p := hetsim.DefaultPlatform()
	for _, algo := range []Algorithm{AlgoMultilevel, AlgoKL, AlgoAgglomerative, AlgoStone} {
		opt := DefaultOptions()
		opt.Algorithm = algo
		d, err := Deploy(telcoChain(), p, sampleBatches(3, 32, 128, int64(algo)+20), opt)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if d.Alloc.Algorithm != algo {
			t.Errorf("%v: report has %v", algo, d.Alloc.Algorithm)
		}
		res, err := d.Simulate(sampleBatches(10, 64, 128, 30), 0)
		if err != nil {
			t.Fatalf("%v: simulate: %v", algo, err)
		}
		if res.Emitted == 0 {
			t.Errorf("%v: nothing emitted", algo)
		}
		if algo.String() == "unknown" {
			t.Errorf("missing String for %d", algo)
		}
	}
}

// GTA should never be materially worse than both CPU-only and GPU-only on
// the same deployment graph.
func TestGTACompetitive(t *testing.T) {
	p := hetsim.DefaultPlatform()
	chain := []*nf.NF{
		nf.NewIPsecGateway("gw", 11, []byte("0123456789abcdef"), []byte("a")),
		idsNoDropNF("ids"),
	}
	d, err := Deploy(chain, p, sampleBatches(4, 64, 512, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := func(a hetsim.Assignment) float64 {
		sim, err := hetsim.NewSimulator(p, nil, d.Graph, a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sampleBatches(40, 64, 512, 41), 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput.Gbps()
	}
	gta := run(d.Assignment)
	cpu := run(nil)
	gpu := run(hetsim.AllGPU(d.Graph))
	t.Logf("gta=%.2f cpu=%.2f gpu=%.2f", gta, cpu, gpu)
	best := cpu
	if gpu > best {
		best = gpu
	}
	if gta < best*0.85 {
		t.Errorf("GTA (%.2f) below 85%% of best single-processor (%.2f)", gta, best)
	}
}

func TestExpansionInvariants(t *testing.T) {
	opt := DefaultOptions()
	opt.GTA = false
	d, err := Deploy(telcoChain(), hetsim.DefaultPlatform(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: 50})
	in, err := profile.SampleIntensities(d.Graph, gen.Batches(3, 32))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Expand(d.Graph, nil, in, d.Platform, nil, 64, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Offloadable elements expand to 10 instances, pinned ones to 1.
	for i := 0; i < d.Graph.Len(); i++ {
		id := element.NodeID(i)
		insts := ex.instances[id]
		if d.Graph.Node(id).Traits().Offloadable {
			if len(insts) != 10 {
				t.Errorf("%s: %d instances", d.Graph.Node(id).Name(), len(insts))
			}
		} else {
			if len(insts) != 1 {
				t.Errorf("%s: %d instances", d.Graph.Node(id).Name(), len(insts))
			}
			if ex.W.Pinned(insts[0]) == nil {
				t.Errorf("%s not pinned", d.Graph.Node(id).Name())
			}
		}
	}
}

// TestDescribeMentionsDecisions: Describe names every phase's decision, and
// each placement row carries the partitioner's raw GPU ratio for the
// element (0.00 when the model keeps it on the CPU) after the selected
// placement; a deployment without GTA has no model column.
func TestDescribeMentionsDecisions(t *testing.T) {
	sample := sampleBatches(4, 32, 128, 60)
	d, err := Deploy(telcoChain(), hetsim.DefaultPlatform(), sample, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := d.Describe()
	for _, want := range []string{"stages", "allocation", "placements", "ACL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
	if d.Alloc.Selected == "" {
		t.Error("no selected candidate recorded")
	}

	if len(d.Alloc.OffloadByElement) == 0 {
		t.Fatalf("the model offloads nothing, so no ratio is pinned:\n%s", out)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 5 && f[len(f)-2] == "model" {
			rows[f[0]] = f[len(f)-1]
		}
	}
	if len(rows) != d.Graph.Len() {
		t.Fatalf("%d rows with a model ratio, want one per element (%d):\n%s", len(rows), d.Graph.Len(), out)
	}
	for name, got := range rows {
		if want := fmt.Sprintf("%.2f", d.Alloc.OffloadByElement[name]); got != want {
			t.Errorf("%s: model ratio %s, want %s", name, got, want)
		}
	}

	opt := DefaultOptions()
	opt.GTA = false
	d, err = Deploy(telcoChain(), hetsim.DefaultPlatform(), sample, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := d.Describe(); strings.Contains(out, " model ") {
		t.Errorf("Describe without GTA shows a model ratio:\n%s", out)
	}
}

// Build is a replica of the deployment's graph: the shape NewSharded checks
// against d.Graph and against a second Deploy's graph, no element instance
// in common with d.Graph or with another Build, d left as it was, and the
// same bytes and verdicts as d.Graph on the same traffic.
func TestBuildIsAReplica(t *testing.T) {
	p := hetsim.DefaultPlatform()
	noSyn, noGTA, noPar := DefaultOptions(), DefaultOptions(), DefaultOptions()
	noSyn.Synthesize = false
	noGTA.GTA = false
	noPar.Parallelize = false
	for _, c := range []struct {
		name, chain string
		opt         Options
	}{
		{"ipv4", "ipv4", DefaultOptions()},
		{"telco", "firewall:1000,ipv4,nat", DefaultOptions()},
		{"hetero", "ipsec,ipv4,ids", DefaultOptions()},
		{"branch", "ids,probe,firewall:200", DefaultOptions()},
		{"usage", "firewall:1000,ipv4,nat,ids", DefaultOptions()},
		{"no-synthesize", "firewall:1000,ipv4,nat,ids", noSyn},
		{"no-gta", "firewall:1000,ipv4,nat,ids", noGTA},
		// Two tenants ("|" separates their chains): the first one's whole
		// chain is the shared prefix, so its demux port feeds its sink.
		{"two-tenants", "firewall:200|firewall:200,nat,ids", noPar},
	} {
		t.Run(c.name, func(t *testing.T) {
			chains := strings.Split(c.chain, "|")
			gen := func(seed int64) []*netpkt.Batch {
				bs := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Seed: seed, Flows: 128,
					Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}).Batches(8, 32)
				for _, b := range bs {
					for k, pk := range b.Packets {
						if len(chains) > 1 {
							pk.Tenant = uint16(1 + k%len(chains))
						}
					}
				}
				return bs
			}
			deploy := func() *Deployment {
				var tenants []Tenant
				for i, chain := range chains {
					nfs, err := spec.Parse(chain, 1)
					if err != nil {
						t.Fatal(err)
					}
					tenants = append(tenants, Tenant{Name: chain, Tag: uint16(i + 1), Chain: nfs})
				}
				var d *Deployment
				var err error
				if len(tenants) == 1 {
					d, err = Deploy(tenants[0].Chain, p, gen(1), c.opt)
				} else {
					d, err = DeployTenants(tenants, p, gen(1), c.opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			d := deploy()
			own := map[string]int{}
			for _, name := range d.Tenants {
				own[name]++
			}
			if len(chains) > 1 && own[chains[0]] != 1 {
				t.Fatalf("tenant labels %v: want %q's whole chain shared, its sink its own", own, chains[0])
			}
			desc, syn := d.Describe(), len(d.Synthesis)
			r0, err := d.Build(0)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := d.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if d.Describe() != desc || len(d.Synthesis) != syn {
				t.Errorf("Build changed the deployment:\n%s\nwas:\n%s", d.Describe(), desc)
			}

			for _, ref := range []*element.Graph{d.Graph, deploy().Graph} {
				pair := []*element.Graph{ref, r0}
				if _, err := dataplane.NewSharded(func(i int) (*element.Graph, error) { return pair[i], nil },
					dataplane.ShardedConfig{Shards: 2}); err != nil {
					t.Fatalf("not a replica: %v", err)
				}
			}

			seen := map[element.Element]string{}
			for name, g := range map[string]*element.Graph{"d.Graph": d.Graph, "Build(0)": r0, "Build(1)": r1} {
				for i := 0; i < g.Len(); i++ {
					el := g.Node(element.NodeID(i))
					if other, ok := seen[el]; ok {
						t.Fatalf("%s node %d (%s) is also in %s", name, i, el.Name(), other)
					}
					seen[el] = name
				}
			}

			d.Graph.Reset()
			defer d.Graph.Reset()
			want, err := element.NewExecutor(d.Graph)
			if err != nil {
				t.Fatal(err)
			}
			got, err := element.NewExecutor(r0)
			if err != nil {
				t.Fatal(err)
			}
			wantIn, gotIn := gen(2), gen(2)
			if sinks := d.Graph.Sinks(); len(sinks) != len(chains) {
				t.Fatalf("%d sinks for %d tenants", len(sinks), len(chains))
			}
			for bi := range wantIn {
				ow, err := want.RunBatch(wantIn[bi])
				if err != nil {
					t.Fatal(err)
				}
				og, err := got.RunBatch(gotIn[bi])
				if err != nil {
					t.Fatal(err)
				}
				for si, dw := range d.Graph.Sinks() {
					dg := r0.Sinks()[si]
					if len(ow[dw]) != len(og[dg]) {
						t.Fatalf("batch %d: %d output batches, d.Graph %d", bi, len(og[dg]), len(ow[dw]))
					}
					for k, bw := range ow[dw] {
						bg := og[dg][k]
						if len(bw.Packets) != len(bg.Packets) {
							t.Fatalf("batch %d.%d: %d packets, d.Graph %d", bi, k, len(bg.Packets), len(bw.Packets))
						}
						for j, pw := range bw.Packets {
							pg := bg.Packets[j]
							if pw.Dropped != pg.Dropped || !bytes.Equal(pw.Data, pg.Data) {
								t.Fatalf("batch %d.%d packet %d: dropped=%v vs d.Graph %v, or bytes differ",
									bi, k, j, pg.Dropped, pw.Dropped)
							}
						}
					}
				}
			}
		})
	}
}

// An IDS scan keeps no per-flow state, so tenants whose chains open with
// the same scan share it, header check included. An alert-only and a
// drop-on-match scan of one pattern set are different elements: no
// composition shares them and no synthesis merges them.
func TestStatelessScanShared(t *testing.T) {
	p := hetsim.DefaultPlatform()
	opt := DefaultOptions()
	opt.Parallelize = false
	ids := func(drop bool) *nf.NF { return nf.NewIDS("ids", spec.DefaultPatterns, drop) }
	sample := func(tenants int) []*netpkt.Batch {
		bs := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(256), Seed: 1, Flows: 64,
			Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns}).Batches(4, 32)
		for _, b := range bs {
			for k, pk := range b.Packets {
				if tenants > 1 {
					pk.Tenant = uint16(1 + k%tenants)
				}
			}
		}
		return bs
	}
	deploy := func(chains ...[]*nf.NF) *Deployment {
		t.Helper()
		var tenants []Tenant
		for i, c := range chains {
			tenants = append(tenants, Tenant{Name: fmt.Sprint("t", i), Tag: uint16(i + 1), Chain: c})
		}
		d, err := DeployTenants(tenants, p, sample(len(chains)), opt)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// count returns how many kind nodes the tenants share and how many
	// belong to one tenant.
	count := func(d *Deployment, kind string) (shared, own int) {
		for i := 0; i < d.Graph.Len(); i++ {
			if d.Graph.Node(element.NodeID(i)).Traits().Kind != kind {
				continue
			}
			if _, ok := d.Tenants[element.NodeID(i)]; ok {
				own++
			} else {
				shared++
			}
		}
		return shared, own
	}

	d := deploy([]*nf.NF{ids(false)}, []*nf.NF{ids(false), nf.NewNAT("nat", 0x01020304)})
	for _, kind := range []string{"CheckIPHeader", "AhoCorasick"} {
		if shared, _ := count(d, kind); shared != 1 {
			t.Errorf("ids + ids,nat: %d shared %s nodes, want 1", shared, kind)
		}
	}
	if shared, own := count(d, "AhoCorasick"); shared+own != 1 {
		t.Errorf("ids + ids,nat: %d AhoCorasick nodes, want the one shared scan", shared+own)
	}

	// Hoisting puts the router's lookup (or the probe's counter) ahead of
	// the scan in one tenant only; the scan still runs once for both.
	for _, row := range [][]string{{"ids,ipv4", "ids,nat"}, {"probe,ids,ipv4", "ids,ipv4"}} {
		var chains [][]*nf.NF
		for _, c := range row {
			nfs, err := spec.Parse(c, 1)
			if err != nil {
				t.Fatal(err)
			}
			chains = append(chains, nfs)
		}
		if shared, own := count(deploy(chains...), "AhoCorasick"); shared != 1 || own != 0 {
			t.Errorf("%s | %s: %d shared, %d own scans; want 1 and 0", row[0], row[1], shared, own)
		}
	}

	d = deploy([]*nf.NF{ids(false)}, []*nf.NF{ids(true)})
	if shared, own := count(d, "AhoCorasick"); shared != 0 || own != 2 {
		t.Errorf("alert-only + drop-on-match: %d shared, %d own scans; want 0 and 2", shared, own)
	}
	d, err := Deploy([]*nf.NF{ids(false), ids(true)}, p, sample(1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if shared, own := count(d, "AhoCorasick"); shared+own != 2 {
		t.Errorf("ids(alert),ids(drop) in one chain: %d scans after synthesis, want 2", shared+own)
	}
}
