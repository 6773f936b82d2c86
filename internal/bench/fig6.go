package bench

import (
	"fmt"

	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Fig6 reproduces the offload-ratio characterization (paper Fig. 6):
// per-NF throughput as the fraction of packets offloaded to the GPU sweeps
// 0..100% in 10% steps. The paper's headline finding is that the optimum
// is NF-specific — IPsec peaks near 70% while IPv4 is best left on the
// CPU — so no one-size-fits-all ratio exists.
func Fig6(cfg Config) (*Table, error) {
	cfg.defaults()
	type workload struct {
		name    string
		nf      *nf.NF
		pktSize int
		kind    string // the heavy element kind whose ratio is swept
	}
	wls := []workload{
		{"IPv4", mkIPv4("ipv4", cfg.Seed), 64, "IPLookup"},
		{"IPsec", mkIPsec("ipsec"), 64, "IPsecSeal"},
		{"DPI", mkDPI("dpi"), 1024, "AhoCorasick"},
	}

	t := &Table{
		ID:    "fig6",
		Title: "Throughput (Gbps) vs. GPU offload fraction",
		Headers: []string{"offload%", wls[0].name + " (64B)",
			wls[1].name + " (64B)", wls[2].name + " (1024B)"},
	}

	type sweep struct {
		gbps []float64
		best int
	}
	results := make([]sweep, len(wls))
	for wi, wl := range wls {
		results[wi].gbps = make([]float64, 11)
		for step := 0; step <= 10; step++ {
			frac := float64(step) / 10
			g, _, _ := nf.BuildChain([]*nf.NF{wl.nf})
			kinds := []string{wl.kind}
			if wl.name == "DPI" {
				kinds = append(kinds, "RegexDFA")
			}
			sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g,
				hetsim.KindSplit(g, frac, kinds...))
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(batchesFor(cfg, traffic.Fixed(wl.pktSize),
				traffic.PayloadRandom, int64(60+wi)), 0)
			if err != nil {
				return nil, err
			}
			results[wi].gbps[step] = res.Throughput.Gbps()
			if res.Throughput.Gbps() > results[wi].gbps[results[wi].best] {
				results[wi].best = step
			}
		}
	}
	for step := 0; step <= 10; step++ {
		t.AddRow(fmt.Sprintf("%d%%", step*10),
			f2(results[0].gbps[step]), f2(results[1].gbps[step]), f2(results[2].gbps[step]))
	}
	for wi, wl := range wls {
		t.Notes = append(t.Notes, fmt.Sprintf("%s best at %d%% offload",
			wl.name, results[wi].best*10))
	}
	t.Notes = append(t.Notes,
		"paper: best ratios vary per NF; IPsec peaks near 70%, not at 100%")
	return t, nil
}
