package bench

import (
	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Fig7 reproduces the chain-length characterization (paper Fig. 7): four
// SFC cases of growing length — A: IPsec; B: IPsec+IPv4; C:
// FW+IPv4+IPsec; D: IPv4+IPsec+IDS — each run CPU-only, GPU-only, and at
// a fixed 70% offload. The paper's finding: no single ratio stays best as
// the chain grows, and GPU acceleration is offset by the aggregated
// offloading overheads.
func Fig7(cfg Config) (*Table, error) {
	cfg.defaults()
	cases := []struct {
		name  string
		chain func() []*nf.NF
	}{
		{"A: IPsec", func() []*nf.NF { return []*nf.NF{mkIPsec("a")} }},
		{"B: IPsec+IPv4", func() []*nf.NF {
			return []*nf.NF{mkIPsec("a"), mkIPv4("b", cfg.Seed)}
		}},
		{"C: FW+IPv4+IPsec", func() []*nf.NF {
			return []*nf.NF{mkFirewall("a", 200), mkIPv4("b", cfg.Seed), mkIPsec("c")}
		}},
		{"D: IPv4+IPsec+IDS", func() []*nf.NF {
			return []*nf.NF{mkIPv4("a", cfg.Seed), mkIPsec("b"), mkIDS("c")}
		}},
	}

	t := &Table{
		ID:      "fig7",
		Title:   "Acceleration offset with SFC length (Gbps, 64B packets)",
		Headers: []string{"case", "CPU-only", "GPU-only", "70% offload"},
	}
	for ci, c := range cases {
		row := []string{c.name}
		for mi, mode := range []string{"cpu", "gpu", "70"} {
			g, _, _ := nf.BuildChain(c.chain())
			var a hetsim.Assignment
			switch mode {
			case "cpu":
				a = nil
			case "gpu":
				a = gpuOnly(g)
			default:
				a = hetsim.UniformSplit(g, 0.7)
			}
			sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, a)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(batchesFor(cfg, traffic.Fixed(64),
				traffic.PayloadRandom, int64(70+ci*3+mi)), 0)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(res.Throughput.Gbps()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: the same offload ratio cannot keep consistent performance across cases")
	return t, nil
}
