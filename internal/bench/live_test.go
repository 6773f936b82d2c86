package bench

import (
	"context"
	"testing"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func liveTestChain() []*nf.NF {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	return []*nf.NF{
		nf.NewIPv4Router("r", trie.BuildDir24_8(&tr), "dp"),
		nf.NewNAT("nat", 0x01020304),
	}
}

func liveTraffic(seed int64, n int) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.Fixed(256), Seed: seed, Flows: 64,
	})
	return gen.Batches(n, 32)
}

// The end-to-end bridge: live-measured profile feeds the GTA allocator in
// place of the offline sweep.
func TestLiveProfileFeedsAllocator(t *testing.T) {
	p := hetsim.DefaultPlatform()

	// Offline dictionary for the GPU side (a live CPU run cannot see it).
	offG, _, _ := nf.BuildChain(liveTestChain())
	dict, err := profile.OfflineProfile(p, nil, offG, profile.OfflineConfig{
		PacketSizes: []int{64, 1024},
		BatchSize:   32,
		Batches:     4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Live run on a fresh graph (elements are stateful).
	liveG, _, _ := nf.BuildChain(liveTestChain())
	_, pl, err := dataplane.RunBatches(context.Background(), liveG,
		dataplane.Config{Metrics: true}, liveTraffic(2, 30))
	if err != nil {
		t.Fatal(err)
	}
	rep := pl.Snapshot()
	in, err := rep.Intensities()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ApplyCPUTimings(dict) == 0 {
		t.Fatal("live timings must override at least one CPU entry")
	}

	// The dictionary's CPU numbers are now the measured ones.
	timings := rep.CPUTimings()
	e, err := dict.Lookup("NATRewrite", 256)
	if err != nil {
		t.Fatal(err)
	}
	if e.CPUNsPerPkt != timings["NATRewrite"] {
		t.Fatalf("NAT cpu ns/pkt = %g, want live %g", e.CPUNsPerPkt, timings["NATRewrite"])
	}

	// Allocate straight from the live profile.
	allocG, _, _ := nf.BuildChain(liveTestChain())
	assign, alloc, err := core.Allocate(allocG, dict, in, p, nil,
		32, 0.25, core.AlgoMultilevel)
	if err != nil {
		t.Fatal(err)
	}
	if assign == nil || alloc == nil {
		t.Fatal("allocator returned nothing")
	}
}
