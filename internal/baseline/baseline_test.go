package baseline

import (
	"testing"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func testChain() []*nf.NF {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	return []*nf.NF{
		nf.NewIPv4Router("router", trie.BuildDir24_8(&tr), "d"),
		nf.NewIPsecGateway("ipsec", 3, []byte("0123456789abcdef"), []byte("a")),
	}
}

func gen(seed int64, pkt int) func(n int) []*netpkt.Batch {
	return func(n int) []*netpkt.Batch {
		g := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(pkt), Seed: seed})
		return g.Batches(n, 64)
	}
}

func TestBuildAllSystems(t *testing.T) {
	p := hetsim.DefaultPlatform()
	for _, sys := range []System{CPUOnly, GPUOnly, FixedRatio, FastClick, NBA} {
		d, err := Build(sys, testChain(), p, gen(1, 256))
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if d.Graph == nil {
			t.Fatalf("%v: no graph", sys)
		}
		res, err := d.Simulate(p, nil, gen(2, 256)(20), 0)
		if err != nil {
			t.Fatalf("%v: simulate: %v", sys, err)
		}
		if res.Emitted == 0 {
			t.Errorf("%v: nothing emitted", sys)
		}
		if sys.String() == "unknown" {
			t.Errorf("missing name for %d", sys)
		}
	}
}

func TestCPUOnlyNeverTouchesGPU(t *testing.T) {
	p := hetsim.DefaultPlatform()
	d, err := Build(CPUOnly, testChain(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Simulate(p, nil, gen(3, 64)(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelLaunches != 0 {
		t.Error("CPU-only launched kernels")
	}
}

func TestGPUOnlyOffloadsEverything(t *testing.T) {
	p := hetsim.DefaultPlatform()
	d, err := Build(GPUOnly, testChain(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Simulate(p, nil, gen(4, 64)(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelLaunches == 0 {
		t.Error("GPU-only launched nothing")
	}
}

func TestFixedRatioUsesBoth(t *testing.T) {
	p := hetsim.DefaultPlatform()
	d, err := Build(FixedRatio, testChain(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, pl := range d.Assignment {
		if pl.Mode != hetsim.ModeSplit || pl.GPUFraction != 0.7 {
			t.Errorf("node %d placed %+v, want a 0.7 GPU split", id, pl)
		}
	}
	if len(d.Assignment) == 0 {
		t.Error("fixed ratio placed no element")
	}
	res, err := d.Simulate(p, nil, gen(5, 64)(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelLaunches == 0 || res.CPUBusyNs == 0 {
		t.Error("fixed ratio should use both processors")
	}
}

func TestNBAPicksPerNFRatios(t *testing.T) {
	p := hetsim.DefaultPlatform()
	d, err := Build(NBA, testChain(), p, gen(6, 512))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NBARatios) != 2 {
		t.Fatalf("NBARatios = %v", d.NBARatios)
	}
	// IPv4 should stay CPU-bound; IPsec at larger packets should offload.
	if d.NBARatios["router"] > 0.2 {
		t.Errorf("NBA offloaded IPv4 by %.1f", d.NBARatios["router"])
	}
	if d.NBARatios["ipsec"] <= d.NBARatios["router"] {
		t.Errorf("NBA ratios: ipsec %.1f <= router %.1f",
			d.NBARatios["ipsec"], d.NBARatios["router"])
	}
}

func TestNBARequiresCalibration(t *testing.T) {
	if _, err := Build(NBA, testChain(), hetsim.DefaultPlatform(), nil); err == nil {
		t.Error("NBA without calibration accepted")
	}
}

func TestRatioForName(t *testing.T) {
	ratios := map[string]float64{"fw": 0.3}
	if r, ok := ratioForName("fw#0/acl", ratios); !ok || r != 0.3 {
		t.Errorf("ratioForName = %v,%v", r, ok)
	}
	if _, ok := ratioForName("noseparator", ratios); ok {
		t.Error("matched a name without '#'")
	}
	if _, ok := ratioForName("other#1/x", ratios); ok {
		t.Error("matched an unknown NF")
	}
}
