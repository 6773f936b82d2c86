package bench

import (
	"fmt"

	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Ablation isolates each NFCompass technique on the telco chain (the
// DESIGN.md E13 experiment): baseline CPU-only, SFC parallelization only,
// NF synthesis only, GTA only, and the full system — quantifying where
// the paper's combined gains come from.
func Ablation(cfg Config) (*Table, error) {
	cfg.defaults()
	variants := []struct {
		name string
		opt  func() core.Options
	}{
		{"none (CPU chain)", func() core.Options {
			o := core.DefaultOptions()
			o.Parallelize, o.Synthesize, o.GTA = false, false, false
			return o
		}},
		{"parallelize only", func() core.Options {
			o := core.DefaultOptions()
			o.Synthesize, o.GTA = false, false
			return o
		}},
		{"synthesize only", func() core.Options {
			o := core.DefaultOptions()
			o.Parallelize, o.GTA = false, false
			return o
		}},
		{"GTA only", func() core.Options {
			o := core.DefaultOptions()
			o.Parallelize, o.Synthesize = false, false
			return o
		}},
		{"full NFCompass", core.DefaultOptions},
	}

	mkChain := func() []*nf.NF {
		return []*nf.NF{
			mkFirewall("fw", 1000),
			mkIPv4("router", cfg.Seed),
			mkNAT("nat"),
			mkIDS("ids"),
		}
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
		ID:      "ablation",
		Title:   "Technique ablation on FW(1000)→Router→NAT→IDS (256B)",
		Headers: []string{"variant", "Gbps", "latency us", "elements", "stages"},
	}
	for vi, v := range variants {
		opt := v.opt()
		d, err := core.Deploy(mkChain(), hetsim.DefaultPlatform(), mkBatches(int64(300+vi))(), opt)
		if err != nil {
			return nil, err
		}
		m, err := measure(hetsim.DefaultPlatform(), d.Costs, d.Graph, d.Assignment, mkBatches(310))
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, f2(m.Gbps), f1(m.MeanLatencyUs),
			fmt.Sprintf("%d", d.Graph.Len()),
			fmt.Sprintf("%d", core.EffectiveLength(d.Stages)))
	}
	return t, nil
}
