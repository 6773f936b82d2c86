// Parallelize: demonstrates the SFC re-organization of Figs. 13–14. A
// chain of four identical firewalls is deployed in the four shapes the
// paper evaluates — sequential (a), fully parallel (b), two stages of two
// (c), and synthesized (d) — and their throughput and latency are
// compared. It also shows the orchestrator deriving configuration b
// automatically from the hazard analysis of Tables II/III.
//
// Run with:
//
//	go run ./examples/parallelize
package main

import (
	"fmt"
	"log"

	"nfcompass/internal/acl"
	"nfcompass/internal/bench"
	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

func main() {
	list := acl.Generate(200, 7)
	mk := func(name string) *nf.NF { return nf.NewFirewall(name, list, true) }

	// The orchestrator's own analysis: four read-only firewalls are
	// pairwise hazard-free, so they collapse into one parallel stage.
	chain := []*nf.NF{mk("fw1"), mk("fw2"), mk("fw3"), mk("fw4")}
	stages := core.Parallelize(chain)
	fmt.Printf("orchestrator: effective length %d (stage sizes:", core.EffectiveLength(stages))
	for _, st := range stages {
		fmt.Printf(" %d", len(st.NFs))
	}
	fmt.Println(")")

	// Build each Fig. 13 shape explicitly and measure it.
	platform := hetsim.DefaultPlatform()
	for _, shape := range []struct {
		cfg  bench.ReorgConfig
		desc string
	}{
		{bench.ConfigA, "a: 4 sequential NFs"},
		{bench.ConfigB, "b: 4 parallel branches"},
		{bench.ConfigC, "c: 2 stages x 2 branches"},
		{bench.ConfigD, "d: 2 branches, merged NFs"},
	} {
		g, err := bench.BuildReorgConfig(shape.cfg, mk)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := hetsim.NewSimulator(platform, nil, g, nil)
		if err != nil {
			log.Fatal(err)
		}
		gen := traffic.NewGenerator(traffic.Config{
			Size: traffic.Fixed(64), TCP: true, Seed: 5, Flows: 256,
		})
		res, err := sim.Run(gen.Batches(80, 64), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %7.2f Gbps  (%d elements)\n",
			shape.desc, res.Throughput.Gbps(), g.Len())
	}
	fmt.Println("\nConfiguration d merges each branch's duplicate elements")
	fmt.Println("(the synthesizer of Fig. 10), recovering the throughput that")
	fmt.Println("pure duplication (b) spends on packet copies.")
}
