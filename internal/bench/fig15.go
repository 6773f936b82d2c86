package bench

import (
	"fmt"

	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Fig15 reproduces the graph-based task allocation evaluation (paper
// Fig. 15): GTA vs CPU-only, GPU-only, and the exhaustively-searched
// optimal offload fraction, over single NFs and combinations, under IMIX
// traffic. Paper findings: GTA reaches >90% of the optimal everywhere,
// beats both single-processor baselines except for IPv4 (where it
// offloads nothing, matching CPU-only), and gains more on SFCs (16% avg)
// than single NFs (5% avg).
func Fig15(cfg Config) (*Table, error) {
	cfg.defaults()
	setups := []struct {
		name  string
		chain func() []*nf.NF
	}{
		{"IPv4", func() []*nf.NF { return []*nf.NF{mkIPv4("v4", cfg.Seed)} }},
		{"IPv6", func() []*nf.NF { return []*nf.NF{mkIPv6("v6")} }},
		{"IPsec", func() []*nf.NF { return []*nf.NF{mkIPsec("sec")} }},
		{"IDS", func() []*nf.NF { return []*nf.NF{mkIDS("ids")} }},
		{"IPv4+IPsec", func() []*nf.NF {
			return []*nf.NF{mkIPv4("v4", cfg.Seed), mkIPsec("sec")}
		}},
		{"IPsec+IDS", func() []*nf.NF {
			return []*nf.NF{mkIPsec("sec"), mkIDS("ids")}
		}},
	}

	t := &Table{
		ID:    "fig15",
		Title: "GTA vs baselines under IMIX: Gbps (latency us)",
		Headers: []string{"setup", "CPU-only", "GPU-only", "GTA",
			"Optimal", "GTA/Opt"},
	}

	var singleGain, sfcGain []float64

	for si, setup := range setups {
		mkBatches := func(seedOff int64) func() []*netpkt.Batch {
			return func() []*netpkt.Batch {
				gen := traffic.NewGenerator(traffic.Config{
					Size: traffic.IMIX{}, Seed: cfg.Seed + seedOff, Flows: 256,
				})
				return gen.Batches(cfg.Batches, cfg.BatchSize)
			}
		}

		isV6 := setup.name == "IPv6"
		if isV6 {
			mkBatches = func(seedOff int64) func() []*netpkt.Batch {
				return func() []*netpkt.Batch {
					gen := traffic.NewGenerator(traffic.Config{
						Size: traffic.IMIX{}, IPv6: true,
						Seed: cfg.Seed + seedOff, Flows: 256,
					})
					return gen.Batches(cfg.Batches, cfg.BatchSize)
				}
			}
		}

		// GTA: allocation only (re-organization is evaluated in fig14).
		opt := core.DefaultOptions()
		opt.Parallelize, opt.Synthesize = false, false
		d, err := core.Deploy(setup.chain(), hetsim.DefaultPlatform(), mkBatches(100)(), opt)
		if err != nil {
			return nil, err
		}
		g := d.Graph

		run := func(a hetsim.Assignment, seedOff int64) (Measurement, error) {
			return measure(hetsim.DefaultPlatform(), nil, g, a, mkBatches(seedOff))
		}

		cpu, err := run(nil, 101)
		if err != nil {
			return nil, err
		}
		gpu, err := run(gpuOnly(g), 102)
		if err != nil {
			return nil, err
		}
		gta, err := run(d.Assignment, 103)
		if err != nil {
			return nil, err
		}

		// Exhaustive search (the paper's "manually exhaustive searches"):
		// the uniform offload-ratio grid over all offloadable elements,
		// the heavy-kernel-only ratio grid, and the single-processor
		// endpoints.
		best := cpu
		if gpu.Gbps > best.Gbps {
			best = gpu
		}
		for step := 1; step <= 10; step++ {
			m, err := run(hetsim.UniformSplit(g, float64(step)/10), 104)
			if err != nil {
				return nil, err
			}
			if m.Gbps > best.Gbps {
				best = m
			}
			mh, err := run(hetsim.KindSplit(g, float64(step)/10, hetsim.HeavyKinds...), 104)
			if err != nil {
				return nil, err
			}
			if mh.Gbps > best.Gbps {
				best = mh
			}
		}
		if gta.Gbps > best.Gbps {
			best = gta // GTA's per-element ratios can beat any uniform one
		}

		ratio := gta.Gbps / best.Gbps
		t.AddRow(setup.name,
			fmt.Sprintf("%s (%s)", f2(cpu.Gbps), f1(cpu.MeanLatencyUs)),
			fmt.Sprintf("%s (%s)", f2(gpu.Gbps), f1(gpu.MeanLatencyUs)),
			fmt.Sprintf("%s (%s)", f2(gta.Gbps), f1(gta.MeanLatencyUs)),
			f2(best.Gbps), f2(ratio))

		bestEffort := cpu.Gbps
		if gpu.Gbps > bestEffort {
			bestEffort = gpu.Gbps
		}
		gain := (gta.Gbps - bestEffort) / bestEffort
		if si < 4 {
			singleGain = append(singleGain, gain)
		} else {
			sfcGain = append(sfcGain, gain)
		}
	}

	t.Notes = append(t.Notes, fmt.Sprintf(
		"avg gain over best single-processor: single NFs %.1f%%, SFCs %.1f%% (paper: 5%% vs 16%%)",
		avg(singleGain)*100, avg(sfcGain)*100))
	t.Notes = append(t.Notes,
		"paper: GTA >90% of optimal everywhere; IPv4 gets no offload (GTA == CPU-only)")
	return t, nil
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
