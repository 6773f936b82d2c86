package bench

import (
	"fmt"
	"math/rand"

	"nfcompass/internal/acl"
	"nfcompass/internal/baseline"
	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
)

// Fig17 reproduces the real-chain validation (paper Figs. 16–17): the
// telco service chain firewall → IP router → NAT, with ClassBench-style
// ACLs of 200/1000/10000 rules and packet sizes 64/128/1500 B, compared
// across FastClick, NBA, and NFCompass. Traffic is generated *from* the
// ACL (flows matching its rules), so classification-tree growth is
// actually exercised. Paper findings: with the 1000 and 10000-rule ACLs
// FastClick loses 38–84% and NBA 32–73% of their small-ACL throughput
// while NFCompass stays near its ACL-200 level, with 1.4–9x lower average
// latency and 2.9–4.3x lower latency variance.
func Fig17(cfg Config) (*Table, error) {
	cfg.defaults()
	aclSizes := []int{200, 1000, 10000}
	if cfg.Quick {
		aclSizes = []int{200, 1000, 6000}
	}
	pktSizes := []int{64, 128, 1500}

	t := &Table{
		ID:      "fig17",
		Title:   "Real chain FW→Router→NAT: Gbps / mean-latency us / latency stddev us",
		Headers: []string{"ACL", "pkt", "FastClick", "NBA", "NFCompass"},
	}

	for ai, rules := range aclSizes {
		list := acl.Generate(acl.DefaultGenConfig(rules, 7))
		// One firewall NF per ACL: every Build gives its graph fresh
		// elements over the NF's one write-free tree.
		fw := nf.NewFirewall("fw", list, true)
		mkChain := func() []*nf.NF {
			return []*nf.NF{
				fw,
				mkIPv4("router", cfg.Seed),
				mkNAT("nat"),
			}
		}
		for pi, pkt := range pktSizes {
			row := []string{fmt.Sprintf("%d", rules), fmt.Sprintf("%dB", pkt)}
			seedBase := cfg.Seed + int64(200+ai*10+pi)
			mkBatches := func(seedOff int64) func() []*netpkt.Batch {
				seed := seedBase + seedOff
				return func() []*netpkt.Batch {
					return aclTraffic(list, cfg.Batches, cfg.BatchSize, pkt, seed)
				}
			}

			// Build the three systems.
			type system struct {
				name  string
				graph *element.Graph
				a     hetsim.Assignment
				costs map[string]hetsim.ElemCost
			}
			var systems []system

			fc, err := baseline.Build(baseline.FastClick, mkChain(),
				cfg.Platform, nil, baseline.Config{})
			if err != nil {
				return nil, err
			}
			systems = append(systems, system{"FastClick", fc.Graph, fc.Assignment, nil})

			nba, err := baseline.Build(baseline.NBA, mkChain(),
				cfg.Platform, func(n int) []*netpkt.Batch {
					return aclTraffic(list, min(n, cfg.Batches), cfg.BatchSize, pkt, seedBase+1)
				}, baseline.Config{})
			if err != nil {
				return nil, err
			}
			systems = append(systems, system{"NBA", nba.Graph, nba.Assignment, nil})

			d, err := core.Deploy(mkChain(), cfg.Platform, mkBatches(2)(),
				core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			systems = append(systems, system{"NFCompass", d.Graph, d.Assignment, d.Costs})

			// Pass 1: saturation capacity per system. The latency pass
			// then offers every system the *same* load — 70% of the
			// slowest system's capacity — as the paper's common traffic
			// generator does.
			gbps := make([]float64, len(systems))
			var interarrival float64
			for si, sys := range systems {
				sys.graph.Reset()
				sim, err := hetsim.NewSimulator(cfg.Platform, sys.costs, sys.graph, sys.a)
				if err != nil {
					return nil, err
				}
				res, err := sim.Run(mkBatches(0)(), 0)
				if err != nil {
					return nil, err
				}
				gbps[si] = res.Throughput.Gbps()
				if res.Throughput.Nanos > 0 {
					ia := float64(res.Throughput.Nanos) / float64(cfg.Batches) / 0.7
					if ia > interarrival {
						interarrival = ia
					}
				}
			}

			// Pass 2: latency under the common offered load.
			for si, sys := range systems {
				sys.graph.Reset()
				sim, err := hetsim.NewSimulator(cfg.Platform, sys.costs, sys.graph, sys.a)
				if err != nil {
					return nil, err
				}
				res, err := sim.Run(mkBatches(0)(), interarrival)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%s/%s/%s", f2(gbps[si]),
					f1(res.Latency.Mean()/1e3), f1(res.Latency.StdDev()/1e3)))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: FastClick throughput -38%/-84% and NBA -32%/-73% at ACL 1000/10000; NFCompass stays flat with 1.4-9x lower latency")
	return t, nil
}

// aclTraffic synthesizes batches whose 5-tuples match randomly drawn rules
// of the ACL — the flow mix the firewall's rules were written for.
func aclTraffic(list *acl.List, batches, batchSize, pktSize int, seed int64) []*netpkt.Batch {
	rng := rand.New(rand.NewSource(seed))
	minUDP := netpkt.EthernetHeaderLen + netpkt.IPv4MinHeaderLen + netpkt.UDPHeaderLen
	payload := pktSize - minUDP
	if payload < 0 {
		payload = 0
	}
	out := make([]*netpkt.Batch, batches)
	for bi := range out {
		pkts := make([]*netpkt.Packet, batchSize)
		for j := range pkts {
			ri := rng.Intn(list.Len())
			k := acl.RandomMatchingKey(rng, &list.Rules[ri])
			if k.Proto == netpkt.IPProtoTCP {
				pkts[j] = netpkt.BuildTCPv4(netpkt.TCPPacketSpec{
					SrcIP: k.Src, DstIP: k.Dst,
					SrcPort: k.SrcPort, DstPort: k.DstPort,
					Payload: make([]byte, max0(pktSize-netpkt.EthernetHeaderLen-
						netpkt.IPv4MinHeaderLen-netpkt.TCPMinHeaderLen)),
					FlowID: uint64(ri),
				})
			} else {
				pkts[j] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
					SrcIP: k.Src, DstIP: k.Dst,
					SrcPort: k.SrcPort, DstPort: k.DstPort,
					Payload: make([]byte, payload),
					FlowID:  uint64(ri),
				})
			}
		}
		out[bi] = netpkt.NewBatch(uint64(bi), pkts)
	}
	return out
}

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
