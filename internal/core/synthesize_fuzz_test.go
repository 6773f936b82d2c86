package core

// Fuzz harness for the synthesizer's core promise: NF synthesis (redundant
// element elimination + drop hoisting, paper §IV-B) may restructure the
// graph but must never change any packet's verdict. Chains are composed
// from the fuzzer's bytes via the deterministic spec parser, built twice
// (elements are stateful and mutate packets in place), one copy is
// synthesized, and both are executed on identical traffic.
//
// Invariant checked per packet:
//   - the drop/forward verdict is identical, and
//   - surviving packets carry byte-identical data.
//
// Dropped packets' bytes are NOT compared: drop hoisting legitimately
// moves the drop earlier, so a doomed packet stops accumulating
// modifications sooner in the synthesized graph.

import (
	"bytes"
	"strings"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

var fuzzNFNames = []string{
	"firewall", "ipv4", "ipv6", "ipsec", "ids", "streamids",
	"dpi", "nat", "lb", "probe", "proxy", "wanopt",
}

// chainFromBytes maps fuzz input to a spec chain string, one NF per byte,
// capped at 6 NFs to keep executions fast.
func chainFromBytes(sel []byte) string {
	if len(sel) == 0 {
		return ""
	}
	if len(sel) > 6 {
		sel = sel[:6]
	}
	names := make([]string, len(sel))
	for i, b := range sel {
		names[i] = fuzzNFNames[int(b)%len(fuzzNFNames)]
	}
	return strings.Join(names, ",")
}

func buildFuzzChain(t *testing.T, chain string, seed int64) *element.Graph {
	nfs, err := spec.Parse(chain, seed)
	if err != nil {
		t.Skip("unparseable chain")
	}
	g, _, _ := nf.BuildChain(nfs)
	return g
}

func runFuzzChain(t *testing.T, g *element.Graph, in []*netpkt.Batch) [][]*netpkt.Packet {
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Skip("graph rejected by executor")
	}
	sinks := g.Sinks()
	if len(sinks) != 1 {
		t.Skip("not a single-sink chain")
	}
	out := make([][]*netpkt.Packet, 0, len(in))
	for _, b := range in {
		sinkOut, err := x.RunBatch(b)
		if err != nil {
			t.Skipf("execution failed: %v", err)
		}
		var pkts []*netpkt.Packet
		for _, ob := range sinkOut[sinks[0]] {
			pkts = append(pkts, ob.Packets...)
		}
		out = append(out, pkts)
	}
	return out
}

func fuzzTraffic(seed int64) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.IMIX{}, Seed: seed, Flows: 32,
		MatchTokens: []string{"attack", "exploit"},
	})
	return gen.Batches(4, 16)
}

func FuzzSynthesizeVerdicts(f *testing.F) {
	f.Add([]byte{1}, int64(1))                // ipv4
	f.Add([]byte{0, 1, 7}, int64(2))          // firewall,ipv4,nat
	f.Add([]byte{4, 4}, int64(3))             // ids,ids — redundant pair
	f.Add([]byte{3, 3, 0}, int64(4))          // ipsec,ipsec,firewall
	f.Add([]byte{9, 9, 9}, int64(5))          // probe x3
	f.Add([]byte{0, 0, 1, 7, 4, 6}, int64(6)) // heavy mixed chain
	f.Add([]byte{8, 2, 11, 10, 5}, int64(7))  // lb,ipv6,wanopt,proxy,streamids
	f.Fuzz(func(t *testing.T, sel []byte, seed int64) {
		chain := chainFromBytes(sel)
		if chain == "" {
			t.Skip()
		}

		base := buildFuzzChain(t, chain, seed)
		synth := buildFuzzChain(t, chain, seed)
		rep, err := Synthesize(synth)
		if err != nil {
			t.Skip("unsynthesizable graph")
		}

		baseOut := runFuzzChain(t, base, fuzzTraffic(seed))
		synthOut := runFuzzChain(t, synth, fuzzTraffic(seed))

		if len(baseOut) != len(synthOut) {
			t.Fatalf("batch count changed: %d -> %d (removed=%v)",
				len(baseOut), len(synthOut), rep.Removed)
		}
		for bi := range baseOut {
			bp, sp := baseOut[bi], synthOut[bi]
			if len(bp) != len(sp) {
				t.Fatalf("chain %q batch %d: packet count %d -> %d after synthesis",
					chain, bi, len(bp), len(sp))
			}
			for pi := range bp {
				if bp[pi].Dropped != sp[pi].Dropped {
					t.Fatalf("chain %q batch %d pkt %d: verdict changed %v -> %v (%s / %s)",
						chain, bi, pi, bp[pi].Dropped, sp[pi].Dropped,
						bp[pi].DropReason, sp[pi].DropReason)
				}
				if !bp[pi].Dropped && !bytes.Equal(bp[pi].Data, sp[pi].Data) {
					t.Fatalf("chain %q batch %d pkt %d: surviving payload modified by synthesis",
						chain, bi, pi)
				}
			}
		}
	})
}
