package bench

import (
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// Fig5 reproduces the batch-split characterization (paper Fig. 5): a chain
// of branch-test elements run once with batch splitting (each stage
// classifies packets to 4 ports that reconverge) and once without (the
// same per-packet inspection work on a single port). The paper measures
// 36.5 Gbps without splitting collapsing to 15.8 Gbps with it, plus the
// overhead fraction attributable to re-organization.
func Fig5(cfg Config) (*Table, error) {
	cfg.defaults()
	const stages = 4

	build := func(split bool) (*element.Graph, error) {
		g := element.NewGraph()
		src := g.Add(element.NewFromDevice("src"))
		prev := src
		for s := 0; s < stages; s++ {
			outputs := 1
			if split {
				outputs = 4
			}
			salt := s // each stage branches on a different condition
			cls := element.NewClassifier(
				fmt.Sprintf("branch%d", s), fmt.Sprintf("branch-test/%d/%v", s, split),
				outputs,
				func(p *netpkt.Packet) int {
					if !split {
						return 0
					}
					return int(p.FlowID>>uint(2*salt)) % 4
				})
			clsID := g.Add(cls)
			g.MustConnect(prev, 0, clsID)
			// Reconverge the ports onto a shared counter stage.
			cnt := g.Add(element.NewCounter(fmt.Sprintf("stage%d", s)))
			for port := 0; port < outputs; port++ {
				g.MustConnect(clsID, port, cnt)
			}
			prev = cnt
		}
		dst := g.Add(element.NewToDevice("dst"))
		g.MustConnect(prev, 0, dst)
		return g, g.Validate()
	}

	t := &Table{
		ID:      "fig5",
		Title:   "Throughput and overhead fraction with vs. without batch split",
		Headers: []string{"config", "Gbps", "split-events", "reorg-fraction"},
	}
	for _, split := range []bool{false, true} {
		g, err := build(split)
		if err != nil {
			return nil, err
		}
		// The paper's branch-test element is deliberately simple; price
		// it below the general-purpose classifier.
		costs := hetsim.DefaultCosts()
		light := costs["Classifier"]
		light.CPUCyclesPerPkt, light.MemAccessPerPkt = 60, 0
		costs["Classifier"] = light
		sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), costs, g, nil)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(batchesFor(cfg, traffic.Fixed(64), traffic.PayloadRandom, 50), 0)
		if err != nil {
			return nil, err
		}
		frac := 0.0
		if res.CPUBusyNs > 0 && res.SplitEvents > 0 {
			// Re-organization share: approximate each split event by the
			// mean per-event cost model.
			perEvent := hetsim.DefaultPlatform().SplitPerBatchNs*2 +
				hetsim.DefaultPlatform().SplitPerPacketNs*float64(cfg.BatchSize)/4
			frac = float64(res.SplitEvents) * perEvent / res.CPUBusyNs
		}
		label := "without_split"
		if split {
			label = "with_split"
		}
		t.AddRow(label, f2(res.Throughput.Gbps()),
			fmt.Sprintf("%d", res.SplitEvents), f2(frac))
	}
	t.Notes = append(t.Notes,
		"paper: 36.5 Gbps without split vs 15.8 Gbps with split (ratio ~2.3x)")
	return t, nil
}
