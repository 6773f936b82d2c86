// Quickstart: build a three-NF service chain, deploy it with the full
// NFCompass pipeline, and compare the result against CPU-only placement.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"nfcompass/internal/acl"
	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func main() {
	// 1. Describe the service function chain: firewall -> router -> IDS.
	rules := acl.Generate(500, 42)
	var routes trie.IPv4Trie
	if err := routes.Insert(0, 0, 1); err != nil { // default route
		log.Fatal(err)
	}
	chain := []*nf.NF{
		nf.NewFirewall("edge-fw", rules, true),
		nf.NewIPv4Router("core-router", trie.BuildDir24_8(&routes), "quickstart"),
		nf.NewIDS("ids", []string{"attack", "exploit", "malware"}, false),
	}

	// 2. Describe the platform (the simulated Table-I server) and sample
	// traffic for the profiler.
	platform := hetsim.DefaultPlatform()
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.IMIX{}, Seed: 7, Flows: 128,
	})
	sample := gen.Batches(8, 64)

	// 3. Deploy: parallelize, synthesize, profile, and allocate.
	d, err := core.Deploy(chain, platform, sample, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment: %d stages, %d elements\n",
		core.EffectiveLength(d.Stages), d.Graph.Len())
	for _, rep := range d.Synthesis {
		if len(rep.Removed) > 0 {
			fmt.Printf("synthesizer removed: %v\n", rep.Removed)
		}
	}
	if d.Alloc != nil {
		for name, frac := range d.Alloc.OffloadByElement {
			fmt.Printf("offloaded %s at %.0f%%\n", name, frac*100)
		}
	}

	// 4. Run traffic through the deployment and through a CPU-only
	// placement of the same graph.
	measure := func(label string, a hetsim.Assignment) {
		sim, err := hetsim.NewSimulator(platform, d.Costs, d.Graph, a)
		if err != nil {
			log.Fatal(err)
		}
		load := traffic.NewGenerator(traffic.Config{
			Size: traffic.IMIX{}, Seed: 8, Flows: 128,
		})
		res, err := sim.Run(load.Batches(80, 64), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.2f Gbps   p50 %6.1f us   drops %v\n",
			label, res.Throughput.Gbps(),
			res.Latency.Percentile(50)/1e3, res.DroppedByElement)
	}
	measure("NFCompass", d.Assignment)
	measure("CPU-only", nil)
}
