package bench

import (
	"fmt"
	"sort"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
)

// Micro dumps the offline profiling dictionary (paper §IV-C-2) for every
// element kind the standard NFs use, at two packet sizes: the per-packet
// CPU and GPU costs the task allocator's node weights come from. This is
// the reference card for reading the other experiments.
func Micro(cfg Config) (*Table, error) {
	cfg.defaults()
	chain := []*nf.NF{
		mkFirewall("fw", 500),
		mkIPv4("v4", cfg.Seed),
		mkIPv6("v6"),
		mkIPsec("sec"),
		mkIDS("ids"),
		mkDPI("dpi"),
		mkNAT("nat"),
		nf.NewLoadBalancer("lb", 4),
		nf.NewStreamIDS("sids", idsPatterns, false),
	}
	g, _, _ := nf.BuildChain(chain)

	dict, err := profile.OfflineProfile(hetsim.DefaultPlatform(), nil, g, profile.OfflineConfig{
		PacketSizes: []int{64, 1024},
		BatchSize:   cfg.BatchSize,
		Batches:     8,
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "micro",
		Title: "Profiled element costs (ns/packet; GPU excludes per-byte PCIe copies)",
		Headers: []string{"kind", "CPU@64B", "GPU@64B", "CPU@1024B",
			"GPU@1024B", "kernel-fixed ns"},
	}
	kinds := dict.Kinds()
	sort.Strings(kinds)
	for _, kind := range kinds {
		small, err := dict.Lookup(kind, 64)
		if err != nil {
			continue
		}
		large, err := dict.Lookup(kind, 1024)
		if err != nil {
			continue
		}
		t.AddRow(kind,
			f1(small.CPUNsPerPkt), f1(small.GPUNsPerPkt),
			f1(large.CPUNsPerPkt), f1(large.GPUNsPerPkt),
			fmt.Sprintf("%.0f", small.GPUFixedNsPerBatch))
	}
	t.Notes = append(t.Notes,
		"content-sensitive kinds (AhoCorasick, ACL) are measured here on random no-match traffic; deployments weigh them from the trace of their own sample")
	return t, nil
}
