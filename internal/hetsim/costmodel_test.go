package hetsim

import (
	"math"
	"testing"
)

func TestCostModelZeroPackets(t *testing.T) {
	cm := NewCostModel(DefaultPlatform(), nil)
	if ns := cm.CPUServiceNs("IPLookup", 0, 0, 0); ns != 0 {
		t.Errorf("CPUServiceNs(0 pkts) = %g", ns)
	}
	if ns := cm.KernelNs("IPLookup", 0, 0, 0); ns != 0 {
		t.Errorf("KernelNs(0 pkts) = %g", ns)
	}
	if s, h, d := cm.GPUServiceNs("IPLookup", 0, 0, 0); s != 0 || h != 0 || d != 0 {
		t.Errorf("GPUServiceNs(0 pkts) = %g,%g,%g", s, h, d)
	}
}

// TestCostModelGPUComposition pins GPUServiceNs as the exact sum of its
// published parts, so the device backend can aggregate launches (paying
// LaunchNs/CtxSwitchNs/PCIe latency once per group) without its arithmetic
// drifting from the simulator's un-aggregated pricing.
func TestCostModelGPUComposition(t *testing.T) {
	cm := NewCostModel(DefaultPlatform(), nil)
	cm.GPUKinds = 3
	const n, bytes = 64, 64 * 512
	svc, h2d, d2h := cm.GPUServiceNs("AhoCorasick", n, bytes, 0)
	want := cm.LaunchNs() + cm.CtxSwitchNs() + cm.KernelNs("AhoCorasick", n, bytes, 0)
	if math.Abs(svc-want) > 1e-9 {
		t.Errorf("GPUServiceNs = %g, want LaunchNs+CtxSwitchNs+KernelNs = %g", svc, want)
	}
	if h2d != cm.H2DNs(bytes) || d2h != cm.D2HNs(bytes) {
		t.Errorf("transfer terms %g/%g differ from H2DNs/D2HNs %g/%g",
			h2d, d2h, cm.H2DNs(bytes), cm.D2HNs(bytes))
	}
}

// TestCostModelAggregationSavesLatency: one transfer of 2b bytes must be
// cheaper than two transfers of b bytes — the PCIe fixed latency is paid
// per transaction, which is exactly what launch aggregation amortizes.
func TestCostModelAggregationSavesLatency(t *testing.T) {
	cm := NewCostModel(DefaultPlatform(), nil)
	const b = 32 * 1024
	split := 2 * cm.H2DNs(b)
	fused := cm.H2DNs(2 * b)
	if fused >= split {
		t.Errorf("aggregated transfer %gns not cheaper than two transfers %gns", fused, split)
	}
	if math.Abs((split-fused)-cm.P.PCIeLatencyNs) > 1e-9 {
		t.Errorf("aggregation saving = %gns, want one PCIe latency %gns",
			split-fused, cm.P.PCIeLatencyNs)
	}
}

// TestSimulatorSharesCostModel: the cost model the simulator prices with
// must carry its contention and co-run context.
func TestSimulatorSharesCostModel(t *testing.T) {
	g := chainGraph(idsNF("ids"))
	as := Assignment{2: {Mode: ModeGPU}}
	sim, err := NewSimulator(DefaultPlatform(), nil, g, as)
	if err != nil {
		t.Fatal(err)
	}
	cm := sim.cm
	if cm == nil {
		t.Fatal("Simulator.cm = nil")
	}
	if cm.Contention == nil {
		t.Error("shared cost model lost the simulator's contention context")
	}
	if cm.P != sim.P {
		t.Error("shared cost model platform differs from simulator platform")
	}
	// The shared model prices with contention applied, so it must charge at
	// least the bare-table cost of an interference-free model.
	bare := NewCostModel(sim.P, nil)
	if cm.CPUServiceNs("IPLookup", 64, 64*256, 0) < bare.CPUServiceNs("IPLookup", 64, 64*256, 0) {
		t.Error("contention-aware CPU pricing below interference-free pricing")
	}
}
