// Package traffic synthesizes the workloads of the paper's evaluation:
// fixed-size UDP micro-benchmark loads (Netperf-style), uniformly random
// lengths, the Intel IMIX mix (61.22% 64 B, 23.47% 536 B, 15.31% 1360 B),
// TCP streams, multi-flow mixes, IPv6 traffic, and DPI payload
// profiles (full-match vs. no-match, Fig. 8). Generation is deterministic
// under a seed, replacing the paper's two 40 Gbps packet-generator
// machines.
//
// The package also reads and writes packet captures (pcap.go) so traces
// interoperate with tcpdump/Wireshark and captured traffic can drive the
// framework, with deliberate format limits: classic pcap only (pcapng is
// rejected at the magic check), the Ethernet link type only, both byte
// orders, and both the microsecond (0xa1b2c3d4) and nanosecond
// (0xa1b23c4d) timestamp magics on the read side. Frames longer than the
// capture's snapshot length arrive snaplen-truncated — the bytes on disk
// are what replay sees. ReadPcap materializes a whole capture; PcapReader/
// PcapWriter stream records one at a time for captures that do not fit in
// memory (the ingress plane's replay path).
package traffic

import (
	"math/rand"

	"nfcompass/internal/netpkt"
)

// SizeDist chooses packet wire sizes.
type SizeDist interface {
	// Next returns the next total packet size in bytes (>= the minimum
	// frame the headers require).
	Next(rng *rand.Rand) int
	// Name labels the distribution in reports.
	Name() string
}

// Fixed is a constant packet size.
type Fixed int

// Next implements SizeDist.
func (f Fixed) Next(*rand.Rand) int { return int(f) }

// Name implements SizeDist.
func (f Fixed) Name() string {
	switch f {
	case 64:
		return "64B"
	case 128:
		return "128B"
	case 1500:
		return "1500B"
	}
	return "fixed"
}

// Uniform picks sizes uniformly in [Lo, Hi].
type Uniform struct{ Lo, Hi int }

// Next implements SizeDist.
func (u Uniform) Next(rng *rand.Rand) int { return u.Lo + rng.Intn(u.Hi-u.Lo+1) }

// Name implements SizeDist.
func (u Uniform) Name() string { return "uniform" }

// IMIX is the Intel Internet-packet-mix distribution the paper's Fig. 15
// evaluation uses: 61.22% 64 B, 23.47% 536 B, 15.31% 1360 B.
type IMIX struct{}

// Next implements SizeDist.
func (IMIX) Next(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.6122:
		return 64
	case r < 0.6122+0.2347:
		return 536
	default:
		return 1360
	}
}

// Name implements SizeDist.
func (IMIX) Name() string { return "IMIX" }

// PayloadProfile controls DPI-relevant payload content.
type PayloadProfile int

// Payload profiles for DPI characterization (Fig. 8 d/e).
const (
	// PayloadRandom fills payloads with seeded random ASCII that avoids
	// the benchmark pattern sets ("no match").
	PayloadRandom PayloadProfile = iota
	// PayloadFullMatch embeds attack patterns in every payload so the
	// matcher walks deep DFA paths ("full match").
	PayloadFullMatch
)

// Config describes a traffic generation task.
type Config struct {
	// Size chooses wire sizes (default Fixed(64)).
	Size SizeDist
	// Flows is the number of distinct, equally popular flows (default 64).
	Flows int
	// TCP emits TCP segments instead of UDP datagrams.
	TCP bool
	// IPv6 emits IPv6 packets (UDP only).
	IPv6 bool
	// Payload selects DPI content; MatchTokens are the patterns embedded
	// under PayloadFullMatch.
	Payload     PayloadProfile
	MatchTokens []string
	// Seed makes the stream deterministic.
	Seed int64
}

// Generator produces deterministic packet batches.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	nextID  uint64
	minSize int
}

// NewGenerator validates and prepares a generator.
func NewGenerator(cfg Config) *Generator {
	if cfg.Size == nil {
		cfg.Size = Fixed(64)
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 64
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.minSize = netpkt.EthernetHeaderLen + netpkt.IPv4MinHeaderLen + netpkt.UDPHeaderLen
	if cfg.TCP {
		g.minSize = netpkt.EthernetHeaderLen + netpkt.IPv4MinHeaderLen + netpkt.TCPMinHeaderLen
	}
	if cfg.IPv6 {
		g.minSize = netpkt.EthernetHeaderLen + netpkt.IPv6HeaderLen + netpkt.UDPHeaderLen
	}
	return g
}

// flow returns the next flow index, each equally likely.
func (g *Generator) flow() uint64 {
	return uint64(g.rng.Intn(g.cfg.Flows))
}

// payload builds a payload of n bytes honoring the payload profile.
func (g *Generator) payload(n int) []byte {
	if n <= 0 {
		return nil
	}
	b := make([]byte, n)
	switch g.cfg.Payload {
	case PayloadFullMatch:
		// Tile the match tokens across the payload.
		toks := g.cfg.MatchTokens
		if len(toks) == 0 {
			toks = []string{"attack"}
		}
		i := 0
		for i < n {
			tok := toks[g.rng.Intn(len(toks))]
			i += copy(b[i:], tok)
			if i < n {
				b[i] = ' '
				i++
			}
		}
	default:
		// Lowercase letters with digits — avoids typical rule tokens by
		// inserting separators frequently.
		const alpha = "qwertyuiop1234567890"
		for i := range b {
			b[i] = alpha[g.rng.Intn(len(alpha))]
		}
	}
	return b
}

// NextPacket generates one packet.
func (g *Generator) NextPacket() *netpkt.Packet {
	size := g.cfg.Size.Next(g.rng)
	if size < g.minSize {
		size = g.minSize
	}
	flow := g.flow()
	srcPort := uint16(1024 + flow%40000)
	dstPort := uint16(80)
	if flow%5 == 1 {
		dstPort = 443
	}

	if g.cfg.IPv6 {
		pay := g.payload(size - g.minSize)
		return netpkt.BuildUDPv6(netpkt.UDPv6PacketSpec{
			SrcIP:   netpkt.IPv6Addr{Hi: 0x20010db800000000, Lo: flow + 1},
			DstIP:   netpkt.IPv6Addr{Hi: 0x20010db8_0001_0000, Lo: uint64(g.rng.Intn(1 << 16))},
			SrcPort: srcPort, DstPort: dstPort,
			Payload: pay, FlowID: flow,
		})
	}

	src := netpkt.IPv4Addr(0x0a_00_00_00 + uint32(flow)%0xffff + 1)
	dst := netpkt.IPv4Addr(0xc0_a8_00_00 + uint32(g.rng.Intn(1<<14)))
	if g.cfg.TCP {
		pay := g.payload(size - g.minSize)
		return netpkt.BuildTCPv4(netpkt.TCPPacketSpec{
			SrcIP: src, DstIP: dst,
			SrcPort: srcPort, DstPort: dstPort,
			Seq: g.rng.Uint32(), Flags: netpkt.TCPAck,
			Payload: pay, FlowID: flow,
		})
	}
	pay := g.payload(size - g.minSize)
	return netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
		SrcIP: src, DstIP: dst,
		SrcPort: srcPort, DstPort: dstPort,
		Payload: pay, FlowID: flow,
	})
}

// NextBatch generates a batch of n packets with a fresh batch id.
func (g *Generator) NextBatch(n int) *netpkt.Batch {
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = g.NextPacket()
	}
	id := g.nextID
	g.nextID++
	return netpkt.NewBatch(id, pkts)
}

// Batches generates count batches of n packets each.
func (g *Generator) Batches(count, n int) []*netpkt.Batch {
	out := make([]*netpkt.Batch, count)
	for i := range out {
		out[i] = g.NextBatch(n)
	}
	return out
}
