// Telco chain: the paper's Fig. 16 validation scenario — firewall with a
// large ACL, IP router, and source NAT — deployed with NFCompass and
// compared against the FastClick-like and NBA-like baselines across ACL
// sizes. This is the experiment behind Fig. 17, runnable standalone.
//
// Run with:
//
//	go run ./examples/telco-chain
package main

import (
	"fmt"
	"log"
	"math/rand"

	"nfcompass/internal/acl"
	"nfcompass/internal/baseline"
	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/trie"
)

func main() {
	platform := hetsim.DefaultPlatform()

	for _, rules := range []int{200, 2000} {
		list := acl.Generate(rules, 7)
		chain := func() []*nf.NF {
			var tr trie.IPv4Trie
			_ = tr.Insert(0, 0, 1)
			return []*nf.NF{
				nf.NewFirewall("fw", list, true),
				nf.NewIPv4Router("router", trie.BuildDir24_8(&tr), "telco"),
				nf.NewNAT("nat", 0x01020304),
			}
		}

		// Traffic drawn from the ACL itself: flows the rules describe.
		mkTraffic := func(seed int64) []*netpkt.Batch {
			rng := rand.New(rand.NewSource(seed))
			batches := make([]*netpkt.Batch, 60)
			for bi := range batches {
				pkts := make([]*netpkt.Packet, 64)
				for j := range pkts {
					ri := rng.Intn(list.Len())
					k := acl.RandomMatchingKey(rng, &list.Rules[ri])
					pkts[j] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
						SrcIP: k.Src, DstIP: k.Dst,
						SrcPort: k.SrcPort, DstPort: k.DstPort,
						Payload: make([]byte, 86), // 128B wire size
						FlowID:  uint64(ri),
					})
				}
				batches[bi] = netpkt.NewBatch(uint64(bi), pkts)
			}
			return batches
		}

		fmt.Printf("=== ACL %d rules ===\n", rules)

		// NFCompass.
		d, err := core.Deploy(chain(), platform, mkTraffic(100), core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Simulate(mkTraffic(1), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.2f Gbps  p50 %6.1f us\n",
			"NFCompass", res.Throughput.Gbps(), res.Latency.Percentile(50)/1e3)

		// Baselines.
		for _, sys := range []baseline.System{baseline.FastClick, baseline.NBA} {
			b, err := baseline.Build(sys, chain(), platform,
				func(n int) []*netpkt.Batch { return mkTraffic(2)[:n] })
			if err != nil {
				log.Fatal(err)
			}
			res, err := b.Simulate(platform, nil, mkTraffic(1), 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %8.2f Gbps  p50 %6.1f us\n",
				sys, res.Throughput.Gbps(), res.Latency.Percentile(50)/1e3)
		}
		fmt.Println()
	}
}
