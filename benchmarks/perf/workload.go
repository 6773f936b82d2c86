package main

import (
	"fmt"
	"math/rand"

	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// chainSeed fixes every generated table (ACL rules, AC patterns): only the
// traffic varies with -seed, so a seed changes the inputs and never the
// program under test.
const chainSeed = 1

// templateLen is the number of frames a seed expands to; the source cycles
// over them. 16384 frames of the largest workload (1024 B) are 16 MB, far
// beyond the L2, so buffer reuse does not flatter the copy.
const templateLen = 16384

// workload is one set of inputs plus the chain it drives.
type workload struct {
	name string
	// chain builds fresh NF values (tables included) — it is part of the
	// timed set-up.
	chain func() ([]*nf.NF, error)
	// size draws a frame length; flows is the distinct-flow count inside one
	// template pass.
	size  traffic.SizeDist
	flows int
	// rekey salts FlowID on every template pass so conntrack and NAT see
	// sustained flow churn instead of 100 % hits.
	rekey bool
	// matchShare of the payloads embed one IDS pattern.
	matchShare float64
	// pacedPPS is the frozen open-loop rate of the latency phase.
	pacedPPS float64
	// flowTTL / flowCapacity configure the pump's conntrack table.
	flowTTL      int64
	flowCapacity int
	// wantDiamond asserts the orchestrator produced a parallel stage.
	wantDiamond bool
}

// hetero's IDS rule set: 1500 fixed patterns (Snort-scale automaton).
var idsPatterns = func() []string {
	rng := rand.New(rand.NewSource(chainSeed))
	const alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZ/._-%"
	out := make([]string, 1500)
	for i := range out {
		b := make([]byte, 6+rng.Intn(11))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		out[i] = string(b)
	}
	return out
}()

var workloads = []*workload{
	{
		name:  "fwd64",
		chain: func() ([]*nf.NF, error) { return spec.Parse("ipv4", chainSeed) },
		size:  traffic.Fixed(64), flows: 4096,
		pacedPPS: 1_000_000,
		flowTTL:  int64(60e9), flowCapacity: 1 << 21,
	},
	{
		name:  "telco_churn",
		chain: func() ([]*nf.NF, error) { return spec.Parse("firewall:1000,ipv4,nat", chainSeed) },
		size:  traffic.IMIX{}, flows: 4096, rekey: true,
		pacedPPS: 400_000,
		flowTTL:  int64(250e6), flowCapacity: 1 << 16,
	},
	{
		name: "hetero_offload",
		chain: func() ([]*nf.NF, error) {
			c, err := spec.Parse("ipsec,ipv4", chainSeed)
			if err != nil {
				return nil, err
			}
			return append(c, nf.NewIDS("ids2", idsPatterns, false)), nil
		},
		size: traffic.Fixed(1024), flows: 1024, matchShare: 0.10,
		pacedPPS: 40_000,
		flowTTL:  int64(60e9), flowCapacity: 1 << 21,
	},
	{
		name:  "branch_par",
		chain: func() ([]*nf.NF, error) { return spec.Parse("ids,probe,firewall:200", chainSeed) },
		size:  traffic.Fixed(512), flows: 1024,
		pacedPPS: 100_000,
		flowTTL:  int64(60e9), flowCapacity: 1 << 21,
		wantDiamond: true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// template is the seed's traffic: templateLen valid Ethernet/IPv4/UDP frames
// and the flow identity of each.
type template struct {
	frames [][]byte
	flows  []uint64
}

// makeTemplate is a pure function of (workload, seed). The seed draws the
// flows (addresses, ports, ids), which flow each frame belongs to, the
// payload bytes and which payloads carry a pattern. The sequence of frame
// sizes is the same for every seed: it belongs to the workload, and a
// 16384-draw IMIX sample would otherwise move the mean packet size — and
// with it sim_gbps — by 1–3 % from seed to seed.
func makeTemplate(w *workload, seed int64) *template {
	rng := rand.New(rand.NewSource(seed))
	sizes := rand.New(rand.NewSource(chainSeed))
	const minLen = netpkt.EthernetHeaderLen + netpkt.IPv4MinHeaderLen + netpkt.UDPHeaderLen
	type flow struct {
		src, dst     netpkt.IPv4Addr
		sport, dport uint16
		id           uint64
	}
	fl := make([]flow, w.flows)
	for i := range fl {
		fl[i] = flow{
			src:   netpkt.IPv4Addr(0x0a000000 | rng.Uint32()&0x00ffffff),
			dst:   netpkt.IPv4Addr(0xc0a80000 | rng.Uint32()&0xffff),
			sport: uint16(1024 + rng.Intn(60000)),
			dport: []uint16{80, 443, 53, 8080}[rng.Intn(4)],
			id:    rng.Uint64() | 1, // never 0: FlowKey treats 0 as unset
		}
	}
	const alpha = "qwertyuiop1234567890"
	t := &template{frames: make([][]byte, templateLen), flows: make([]uint64, templateLen)}
	for i := range t.frames {
		f := fl[rng.Intn(len(fl))]
		size := w.size.Next(sizes)
		if size < minLen {
			size = minLen
		}
		pay := make([]byte, size-minLen)
		for j := range pay {
			pay[j] = alpha[rng.Intn(len(alpha))]
		}
		if w.matchShare > 0 && rng.Float64() < w.matchShare {
			pat := idsPatterns[rng.Intn(len(idsPatterns))]
			if len(pat) < len(pay) {
				copy(pay[rng.Intn(len(pay)-len(pat)):], pat)
			}
		}
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: f.src, DstIP: f.dst, SrcPort: f.sport, DstPort: f.dport,
			Payload: pay,
		})
		t.frames[i], t.flows[i] = p.Data, f.id
	}
	return t
}

// packet builds frame i as a heap packet the way the source builds arena
// packets: private bytes, parsed, flow stamped.
func (t *template) packet(i int) *netpkt.Packet {
	i %= len(t.frames)
	p := netpkt.NewPacket(append([]byte(nil), t.frames[i]...))
	_ = p.Parse() // template frames are valid by construction
	p.FlowID = t.flows[i]
	return p
}

// batches returns count batches of n packets starting at frame off, with
// consecutive ids from 0 — fresh objects on every call.
func (t *template) batches(off, count, n int) []*netpkt.Batch {
	out := make([]*netpkt.Batch, count)
	for b := range out {
		pkts := make([]*netpkt.Packet, n)
		for j := range pkts {
			pkts[j] = t.packet(off + b*n + j)
		}
		out[b] = netpkt.NewBatch(uint64(b), pkts)
	}
	return out
}

const (
	batchSize     = 64
	sampleBatches = 120 // nfcompass's -batches default: GTA sample and simulation length
	sampleOff     = 0
	simOff        = sampleBatches * batchSize
	verifyBatches = 64
)

// checkShape applies the workload's structural assertions to a deployment.
func (w *workload) checkShape(d *core.Deployment, chainLen int) error {
	if !w.wantDiamond {
		return nil
	}
	if len(d.Stages) >= chainLen {
		return fmt.Errorf("%s: orchestrator kept %d stages for %d NFs (no parallel stage)", w.name, len(d.Stages), chainLen)
	}
	if !hasKind(d.Graph, "Duplicator") || !hasKind(d.Graph, "XORMerge") {
		return fmt.Errorf("%s: deployment graph has no Duplicator/XORMerge diamond", w.name)
	}
	return nil
}

// hasKind reports whether g holds an element of the given kind.
func hasKind(g *element.Graph, kind string) bool {
	for i := 0; i < g.Len(); i++ {
		if g.Node(element.NodeID(i)).Traits().Kind == kind {
			return true
		}
	}
	return false
}
