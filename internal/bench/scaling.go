package bench

import (
	"fmt"

	"nfcompass/internal/baseline"
	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Scaling sweeps SFC length from 1 to 6 NFs on a mixed chain and compares
// NFCompass against the FastClick-like CPU baseline: the growth curve of
// the paper's central claim ("the reduced throughput and increased latency
// caused by the increasing length of SFC"), plus how much of it the
// framework claws back.
func Scaling(cfg Config) (*Table, error) {
	cfg.defaults()
	mkNFs := func(n int) []*nf.NF {
		pool := []func() *nf.NF{
			func() *nf.NF { return mkFirewall("fw", 500) },
			func() *nf.NF { return mkIPv4("v4", cfg.Seed) },
			func() *nf.NF { return mkIPsec("sec") },
			func() *nf.NF { return mkIDS("ids") },
			func() *nf.NF { return mkNAT("nat") },
			func() *nf.NF { return mkDPI("dpi") },
		}
		chain := make([]*nf.NF, n)
		for i := 0; i < n; i++ {
			chain[i] = pool[i%len(pool)]()
		}
		return chain
	}
	mkBatches := func(seedOff int64) func() []*netpkt.Batch {
		return func() []*netpkt.Batch {
			gen := traffic.NewGenerator(traffic.Config{
				Size: traffic.Fixed(256), Seed: cfg.Seed + seedOff, Flows: 256,
			})
			return gen.Batches(cfg.Batches, cfg.BatchSize)
		}
	}

	t := &Table{
		ID:    "scaling",
		Title: "Throughput (Gbps) and latency (us) vs. SFC length (256B)",
		Headers: []string{"NFs", "FastClick", "NFCompass", "speedup",
			"stages", "elements"},
	}
	maxLen := 6
	if cfg.Quick {
		maxLen = 4
	}
	for n := 1; n <= maxLen; n++ {
		fc, err := baseline.Build(baseline.FastClick, mkNFs(n),
			hetsim.DefaultPlatform(), nil)
		if err != nil {
			return nil, err
		}
		mFC, err := measure(hetsim.DefaultPlatform(), nil, fc.Graph, fc.Assignment,
			mkBatches(int64(500+n)))
		if err != nil {
			return nil, err
		}

		d, err := core.Deploy(mkNFs(n), hetsim.DefaultPlatform(),
			mkBatches(int64(520+n))(), core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		mNC, err := measure(hetsim.DefaultPlatform(), d.Costs, d.Graph, d.Assignment,
			mkBatches(int64(500+n)))
		if err != nil {
			return nil, err
		}

		t.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%s/%s", f2(mFC.Gbps), f1(mFC.MeanLatencyUs)),
			fmt.Sprintf("%s/%s", f2(mNC.Gbps), f1(mNC.MeanLatencyUs)),
			fmt.Sprintf("%.2fx", mNC.Gbps/mFC.Gbps),
			fmt.Sprintf("%d", core.EffectiveLength(d.Stages)),
			fmt.Sprintf("%d", d.Graph.Len()))
	}
	t.Notes = append(t.Notes,
		"longer chains amplify the aggregated overheads the baseline pays; NFCompass's advantage should widen with length")
	return t, nil
}
