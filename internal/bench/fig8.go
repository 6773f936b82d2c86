package bench

import (
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// Fig8BatchSize reproduces Fig. 8(a–c): per-NF throughput against batch
// size on CPU and GPU. The CPU curve for DPI degrades past 256 packets
// (cache knee); GPU curves keep improving as fixed kernel overheads
// amortize.
func Fig8BatchSize(cfg Config) (*Table, error) {
	cfg.defaults()
	batches := []int{32, 64, 128, 256, 512, 1024}
	wls := []struct {
		name    string
		mk      func() *nf.NF
		pktSize int
	}{
		{"IPv4", func() *nf.NF { return mkIPv4("v4", cfg.Seed) }, 64},
		{"IPsec", func() *nf.NF { return mkIPsec("sec") }, 64},
		{"DPI", func() *nf.NF { return mkDPI("dpi") }, 256},
	}

	t := &Table{
		ID:      "fig8a",
		Title:   "Throughput (Gbps) vs. batch size, CPU and GPU",
		Headers: []string{"batch"},
	}
	for _, wl := range wls {
		t.Headers = append(t.Headers, wl.name+"/CPU", wl.name+"/GPU")
	}

	totalPkts := cfg.Batches * cfg.BatchSize
	for _, bs := range batches {
		row := []string{fmt.Sprintf("%d", bs)}
		for wi, wl := range wls {
			for _, gpu := range []bool{false, true} {
				g, _, _ := nf.BuildChain([]*nf.NF{wl.mk()})
				var a hetsim.Assignment
				if gpu {
					a = gpuOnly(g)
				}
				sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, a)
				if err != nil {
					return nil, err
				}
				nBatches := totalPkts / bs
				if nBatches < 2 {
					nBatches = 2
				}
				sub := cfg
				sub.Batches, sub.BatchSize = nBatches, bs
				res, err := sim.Run(batchesFor(sub, traffic.Fixed(wl.pktSize),
					traffic.PayloadRandom, int64(80+wi)), 0)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(res.Throughput.Gbps()))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: DPI CPU throughput drops when batch exceeds 256 packets (cache)")
	return t, nil
}

// Fig8Traffic reproduces Fig. 8(d): DPI throughput under no-match vs
// full-match payloads on CPU and GPU — the paper reports a 4–5x gap.
func Fig8Traffic(cfg Config) (*Table, error) {
	cfg.defaults()
	t := &Table{
		ID:      "fig8d",
		Title:   "DPI throughput (Gbps) by traffic pattern (512B payloads)",
		Headers: []string{"pattern", "CPU", "GPU"},
	}
	var cpuVals [2]float64
	for pi, prof := range []traffic.PayloadProfile{traffic.PayloadRandom, traffic.PayloadFullMatch} {
		label := "no-match"
		if prof == traffic.PayloadFullMatch {
			label = "full-match"
		}
		row := []string{label}
		for _, gpu := range []bool{false, true} {
			g, _, _ := nf.BuildChain([]*nf.NF{mkDPI("dpi")})
			var a hetsim.Assignment
			if gpu {
				a = gpuOnly(g)
			}
			sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, a)
			if err != nil {
				return nil, err
			}
			res, err := sim.Run(batchesFor(cfg, traffic.Fixed(512), prof, int64(85+pi)), 0)
			if err != nil {
				return nil, err
			}
			if !gpu {
				cpuVals[pi] = res.Throughput.Gbps()
			}
			row = append(row, f2(res.Throughput.Gbps()))
		}
		t.AddRow(row...)
	}
	if cpuVals[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"no-match/full-match CPU ratio = %.1fx (paper: 4-5x)", cpuVals[0]/cpuVals[1]))
	}
	return t, nil
}

// Fig8CoRun reproduces Fig. 8(e): the co-run interference matrix — the
// throughput drop of each NF when co-running with each other NF. The
// paper's findings: IDS suffers most (average drop 22.2%), the firewall
// is least sensitive.
func Fig8CoRun(cfg Config) (*Table, error) {
	cfg.defaults()
	wls := []struct {
		name    string
		mk      func(string) *nf.NF
		pktSize int
	}{
		{"IPv4", func(n string) *nf.NF { return mkIPv4(n, cfg.Seed) }, 64},
		{"IPsec", func(n string) *nf.NF { return mkIPsec(n) }, 256},
		{"IDS", func(n string) *nf.NF { return mkIDS(n) }, 512},
		{"FW", func(n string) *nf.NF { return mkFirewall(n, 200) }, 64},
		{"NAT", func(n string) *nf.NF { return mkNAT(n) }, 64},
	}

	// Pre-compute each NF's table footprint so co-runners can charge it.
	footprint := make([]float64, len(wls))
	for i, wl := range wls {
		g, _, _ := nf.BuildChain([]*nf.NF{wl.mk("fp")})
		footprint[i] = graphFootprint(g)
	}

	t := &Table{
		ID:      "fig8e",
		Title:   "Co-run throughput drop (%) — row NF co-running with column NF",
		Headers: []string{"NF \\ co"},
	}
	for _, wl := range wls {
		t.Headers = append(t.Headers, wl.name)
	}
	t.Headers = append(t.Headers, "avg")

	for i, wl := range wls {
		// Solo throughput.
		solo, err := coRunGbps(cfg, wl.mk, wl.pktSize, hetsim.CoRun{}, int64(90+i))
		if err != nil {
			return nil, err
		}
		row := []string{wl.name}
		sum, n := 0.0, 0
		for j := range wls {
			if i == j {
				row = append(row, "-")
				continue
			}
			// Co-running NFs keep their dedicated cores (the paper pins
			// NFs to cores) but share the LLC and the GPU — cache
			// contention and kernel switches are the interference.
			ctx := hetsim.CoRun{
				ExtraCPUFootprint: footprint[j] + hetsim.DefaultPlatform().ProcessFootprint,
				ExtraGPUKinds:     1,
			}
			g, err := coRunGbps(cfg, wl.mk, wl.pktSize, ctx, int64(90+i))
			if err != nil {
				return nil, err
			}
			drop := (1 - g/solo) * 100
			sum += drop
			n++
			row = append(row, f1(drop))
		}
		if n > 0 {
			row = append(row, f1(sum/float64(n)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: IDS most sensitive (avg 22.2% drop), firewall least sensitive")
	return t, nil
}

func coRunGbps(cfg Config, mk func(string) *nf.NF, pktSize int,
	ctx hetsim.CoRun, seed int64) (float64, error) {
	g, _, _ := nf.BuildChain([]*nf.NF{mk("x")})
	sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, nil)
	if err != nil {
		return 0, err
	}
	sim.SetCoRun(ctx)
	res, err := sim.Run(batchesFor(cfg, traffic.Fixed(pktSize), traffic.PayloadRandom, seed), 0)
	if err != nil {
		return 0, err
	}
	return res.Throughput.Gbps(), nil
}

// graphFootprint sums element table footprints: exact sizes from elements
// that report them (hetsim.Footprinter), cost-table estimates otherwise.
func graphFootprint(g *element.Graph) float64 {
	costs := hetsim.DefaultCosts()
	total := 0.0
	for i := 0; i < g.Len(); i++ {
		el := g.Node(element.NodeID(i))
		if f, ok := el.(hetsim.Footprinter); ok {
			total += f.FootprintBytes()
			continue
		}
		if c, ok := costs[el.Traits().Kind]; ok {
			total += c.FootprintBytes
		}
	}
	return total
}
