package nf

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/ipsec"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

func testBatch(n, payloadLen int) *netpkt.Batch {
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		payload := bytes.Repeat([]byte{byte('a' + i%26)}, payloadLen)
		pkts[i] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP:   netpkt.IPv4Addr(0x0a000001 + i),
			DstIP:   netpkt.IPv4Addr(0xc0a80001 + i%8),
			SrcPort: uint16(1024 + i), DstPort: 80,
			Payload: payload,
			FlowID:  uint64(i),
		})
	}
	return netpkt.NewBatch(uint64(n), pkts)
}

func runNF(t *testing.T, f *NF, b *netpkt.Batch) (*element.Executor, *netpkt.Batch) {
	t.Helper()
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	entry, exit := f.Build(g, f.Name)
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, entry)
	g.MustConnect(exit, 0, dst)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[dst]) == 0 {
		return x, &netpkt.Batch{}
	}
	return x, out[dst][0]
}

func TestTableIIActionProfiles(t *testing.T) {
	// E7: the published Table II rows, verbatim.
	want := map[Kind][6]bool{
		//                 RdH    RdP    WrH    WrP    AddRm  Drop
		KindProbe:    {true, false, false, false, false, false},
		KindIDS:      {true, true, false, false, false, true},
		KindFirewall: {true, false, false, false, false, false},
		KindNAT:      {true, false, true, false, false, false},
		KindLB:       {true, false, false, false, false, false},
		KindWANOpt:   {true, true, true, true, true, true},
		KindProxy:    {true, true, false, true, false, false},
	}
	for k, w := range want {
		p, ok := TableII[k]
		if !ok {
			t.Errorf("TableII missing %s", k)
			continue
		}
		got := [6]bool{p.ReadsHeader, p.ReadsPayload, p.WritesHeader,
			p.WritesPayload, p.AddRmBits, p.Drop}
		if got != w {
			t.Errorf("TableII[%s] = %v, want %v", k, got, w)
		}
	}
}

func TestDefaultProfileFallbacks(t *testing.T) {
	if p := DefaultProfile(KindIPsec); !p.AddRmBits || !p.WritesPayload {
		t.Errorf("IPsec profile = %+v", p)
	}
	if p := DefaultProfile(KindIPv4); !p.WritesHeader || !p.Drop {
		t.Errorf("IPv4 profile = %+v", p)
	}
	if p := DefaultProfile(Kind("Mystery")); !p.Drop || !p.WritesPayload {
		t.Errorf("unknown profile should be conservative: %+v", p)
	}
}

func TestFirewallDropsAndNeverDrop(t *testing.T) {
	l := &acl.List{
		Rules: []acl.Rule{{
			SrcPlen: 0, DstPlen: 0,
			SrcPort: acl.AnyPort, DstPort: acl.PortRange{Lo: 80, Hi: 80},
			ProtoAny: true, Action: acl.Deny,
		}},
		DefaultAction: acl.Permit,
	}
	fw := NewFirewall("fw", l, false)
	if !fw.Profile.Drop {
		t.Error("dropping firewall profile should have Drop")
	}
	_, out := runNF(t, fw, testBatch(6, 16))
	if out.Live() != 0 {
		t.Errorf("dst-port-80 packets survived a deny-80 firewall: %d live", out.Live())
	}

	fwN := NewFirewall("fwN", l, true)
	if fwN.Profile.Drop {
		t.Error("never-drop firewall profile should not have Drop")
	}
	_, outN := runNF(t, fwN, testBatch(6, 16))
	if outN.Live() != 6 {
		t.Errorf("never-drop firewall dropped packets: %d live", outN.Live())
	}
}

func TestIPv4RouterForwards(t *testing.T) {
	var tr trie.IPv4Trie
	if err := tr.Insert(0xc0a80000, 16, 3); err != nil {
		t.Fatal(err)
	}
	r := NewIPv4Router("r4", trie.BuildDir24_8(&tr), "t")
	_, out := runNF(t, r, testBatch(4, 8))
	if out.Live() != 4 {
		t.Fatalf("live = %d", out.Live())
	}
	p := out.Packets[0]
	ip, err := netpkt.ParseIPv4(p.L3())
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("TTL = %d", ip.TTL)
	}
	if p.UserAnno[0] != 3 {
		t.Errorf("next hop anno = %d", p.UserAnno[0])
	}
}

func TestIPv6RouterForwards(t *testing.T) {
	var tr trie.IPv6Trie
	pfx := netpkt.IPv6Addr{Hi: 0x20010db800000000}
	if err := tr.Insert(pfx, 32, 9); err != nil {
		t.Fatal(err)
	}
	r := NewIPv6Router("r6", trie.BuildV6HashLPM(&tr), "t6")

	pkts := []*netpkt.Packet{netpkt.BuildUDPv6(netpkt.UDPv6PacketSpec{
		SrcIP:   netpkt.IPv6Addr{Hi: pfx.Hi, Lo: 1},
		DstIP:   netpkt.IPv6Addr{Hi: pfx.Hi, Lo: 2},
		SrcPort: 1, DstPort: 2, Payload: []byte("x"),
	})}
	_, out := runNF(t, r, netpkt.NewBatch(0, pkts))
	if out.Live() != 1 {
		t.Fatalf("live = %d", out.Live())
	}
	if out.Packets[0].UserAnno[0] != 9 {
		t.Errorf("anno = %d", out.Packets[0].UserAnno[0])
	}
}

func TestIPsecGatewaySealsDecryptably(t *testing.T) {
	enc := []byte("0123456789abcdef")
	auth := []byte("auth")
	gw := NewIPsecGateway("ipsec", 0x99, enc, auth)
	in := testBatch(3, 32)
	// Remember original L4 bytes to verify decryption.
	originals := make([][]byte, len(in.Packets))
	for i, p := range in.Packets {
		originals[i] = append([]byte(nil), p.Data[p.L4Offset:]...)
	}
	_, out := runNF(t, gw, in)
	if out.Live() != 3 {
		t.Fatalf("live = %d", out.Live())
	}
	rx, _ := ipsec.NewSA(0x99, enc, auth)
	for i, p := range out.Packets {
		if p.L4Proto != netpkt.IPProtoESP {
			t.Fatalf("packet %d proto = %d, want ESP", i, p.L4Proto)
		}
		if !netpkt.IPv4HeaderChecksumOK(p.L3()) {
			t.Errorf("packet %d IP checksum invalid after seal", i)
		}
		pt, err := rx.Open(p.Data[p.L4Offset:])
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(pt, originals[i]) {
			t.Errorf("packet %d: decrypted payload differs", i)
		}
	}
}

func TestIDSDropsOnMatch(t *testing.T) {
	ids := NewIDS("ids", []string{"attack", "evil"}, true)
	clean := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
		SrcIP: 1, DstIP: 2, Payload: []byte("hello friendly world")})
	dirty := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
		SrcIP: 1, DstIP: 2, Payload: []byte("launch the attack now")})
	_, out := runNF(t, ids, netpkt.NewBatch(0, []*netpkt.Packet{clean, dirty}))
	if out.Live() != 1 {
		t.Fatalf("live = %d, want 1", out.Live())
	}
	if out.Packets[0].Dropped == out.Packets[1].Dropped {
		t.Error("exactly one packet should be dropped")
	}
}

func TestDPICountsMatches(t *testing.T) {
	dpi := NewDPI("dpi", []string{"root"}, []string{`[0-9]+\.exe`})
	p1 := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2,
		Payload: []byte("fetch 123.exe as root")})
	x, out := runNF(t, dpi, netpkt.NewBatch(0, []*netpkt.Packet{p1}))
	if out.Live() != 1 {
		t.Fatal("DPI should not drop")
	}
	_ = x
}

func TestNATRewritesAndChecksums(t *testing.T) {
	public := netpkt.IPv4Addr(0x01020304)
	nat := NewNAT("nat", public)
	in := testBatch(4, 16)
	_, out := runNF(t, nat, in)
	if out.Live() != 4 {
		t.Fatalf("live = %d", out.Live())
	}
	for _, p := range out.Packets {
		ip, err := netpkt.ParseIPv4(p.L3())
		if err != nil {
			t.Fatal(err)
		}
		if ip.Src != public {
			t.Errorf("src = %v, want %v", ip.Src, public)
		}
		if !netpkt.IPv4HeaderChecksumOK(p.L3()) {
			t.Error("IP checksum invalid after NAT")
		}
		// Verify the UDP checksum still verifies end-to-end.
		udpSeg := append([]byte(nil), p.L4()...)
		udp, _ := netpkt.ParseUDP(udpSeg)
		want := udp.Checksum
		udpSeg[6], udpSeg[7] = 0, 0
		if got := netpkt.UDPChecksumIPv4(ip.Src, ip.Dst, udpSeg); got != want {
			t.Errorf("UDP checksum = %#04x, want %#04x", got, want)
		}
	}
}

func TestNATSameFlowSamePort(t *testing.T) {
	nat := NewNATRewrite("nat", 0x01010101)
	mk := func(flow uint64) *netpkt.Packet {
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: 0x0a000001, DstIP: 2, SrcPort: 999, DstPort: 80, FlowID: flow})
		return p
	}
	b := netpkt.NewBatch(0, []*netpkt.Packet{mk(1), mk(1), mk(2)})
	nat.Process(b)
	port := func(p *netpkt.Packet) uint16 {
		l4 := p.L4()
		return uint16(l4[0])<<8 | uint16(l4[1])
	}
	if port(b.Packets[0]) != port(b.Packets[1]) {
		t.Error("same flow mapped to different ports")
	}
	if port(b.Packets[0]) == port(b.Packets[2]) {
		t.Error("different flows share a port")
	}
}

func TestLoadBalancerConsistentAndCovering(t *testing.T) {
	lb := NewLoadBalance("lb", 4)
	b := testBatch(64, 4)
	lb.Process(b)
	perFlow := make(map[uint64]byte)
	for _, p := range b.Packets {
		if prev, ok := perFlow[p.FlowID]; ok && prev != p.Paint {
			t.Error("flow split across backends")
		}
		perFlow[p.FlowID] = p.Paint
	}
	used := 0
	for _, c := range lb.PerBackend {
		if c > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("only %d backends used for 64 flows", used)
	}
}

func TestProxyRewritesPayload(t *testing.T) {
	proxy := NewProxy("px", []byte("XYZ"))
	p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2,
		Payload: []byte("abcdef")})
	_, out := runNF(t, proxy, netpkt.NewBatch(0, []*netpkt.Packet{p}))
	if got := string(out.Packets[0].Payload()); !strings.HasPrefix(got, "XYZ") {
		t.Errorf("payload = %q", got)
	}
}

func TestWANOptimizerCompressesAndDedups(t *testing.T) {
	wan := NewWANCompress("wan")
	compressible := bytes.Repeat([]byte{0x55}, 200)
	p1 := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, Payload: compressible, FlowID: 1})
	p2 := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, Payload: compressible, FlowID: 1})
	origLen := p1.Len()
	b := netpkt.NewBatch(0, []*netpkt.Packet{p1, p2})
	wan.Process(b)
	if p1.Dropped {
		t.Fatal("first packet dropped")
	}
	if p1.Len() >= origLen {
		t.Errorf("packet not compressed: %d >= %d", p1.Len(), origLen)
	}
	if !netpkt.IPv4HeaderChecksumOK(p1.L3()) {
		t.Error("IP checksum invalid after compression")
	}
	if !p2.Dropped {
		t.Error("duplicate payload not deduplicated")
	}
	if wan.Compressed != 1 || wan.Deduped != 1 {
		t.Errorf("Compressed=%d Deduped=%d", wan.Compressed, wan.Deduped)
	}
}

func TestRLERoundTripLength(t *testing.T) {
	in := []byte("aaaabbbcc")
	out := rleEncode(in)
	want := []byte{4, 'a', 3, 'b', 2, 'c'}
	if !bytes.Equal(out, want) {
		t.Errorf("rleEncode = %v, want %v", out, want)
	}
}

func TestBuildChainRuns(t *testing.T) {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	chain := []*NF{
		NewProbe("probe"),
		NewIPv4Router("r", trie.BuildDir24_8(&tr), "default"),
		NewNAT("nat", 0x05060708),
	}
	g, _, dst := BuildChain(chain)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(testBatch(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(out[dst]) == 0 || out[dst][0].Live() != 8 {
		t.Fatalf("chain output: %v", out)
	}
	if x.Stats.Emitted != 8 {
		t.Errorf("Emitted = %d", x.Stats.Emitted)
	}
}

func TestProbeAndLBFragments(t *testing.T) {
	probe := NewProbe("p")
	_, out := runNF(t, probe, testBatch(5, 4))
	if out.Live() != 5 {
		t.Errorf("probe dropped packets")
	}
	lb := NewLoadBalancer("lb", 3)
	_, out = runNF(t, lb, testBatch(5, 4))
	if out.Live() != 5 {
		t.Errorf("lb dropped packets")
	}
}

// allocPortRef is the one-port-per-turn walk allocPort replaced, kept as its
// reference: it tests nextPort, then each following port, wrapping from
// 65535 to natFirstPort.
func allocPortRef(e *NATRewrite) uint16 {
	for {
		port := e.nextPort
		e.nextPort++
		if e.nextPort == 0 {
			e.nextPort = natFirstPort
		}
		if w, bit := &e.portInUse[port>>6], uint64(1)<<(port&63); *w&bit == 0 {
			*w |= bit
			return port
		}
	}
}

// TestAllocPortMatchesBitWalk: over random occupancy and a random start, the
// word scan hands out the bit walk's port sequence — wraps included — while
// ports are freed between allocations, until the range is full.
func TestAllocPortMatchesBitWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ports = 1<<16 - natFirstPort
	for trial := 0; trial < 40; trial++ {
		e := NewNATRewrite("nat", 0x01010101)
		density := []float64{0, 0.5, 0.9, 0.99, 0.999}[trial%5]
		held := 0
		for port := natFirstPort; port < 1<<16; port++ {
			if rng.Float64() < density {
				e.portInUse[port>>6] |= 1 << (port & 63)
				held++
			}
		}
		e.nextPort = uint16(natFirstPort + rng.Intn(ports))
		if trial%4 == 0 {
			e.nextPort = uint16(1<<16 - 1 - rng.Intn(200)) // wrap early
		}
		ref := *e
		for held < ports {
			got, want := e.allocPort(), allocPortRef(&ref)
			if got != want || e.nextPort != ref.nextPort || e.portInUse != ref.portInUse {
				t.Fatalf("trial %d: allocPort = %d (next %d), bit walk %d (next %d)",
					trial, got, e.nextPort, want, ref.nextPort)
			}
			held++
			if rng.Intn(8) == 0 { // an eviction frees a port
				port := natFirstPort + rng.Intn(ports)
				if w, bit := port>>6, uint64(1)<<(port&63); e.portInUse[w]&bit != 0 {
					e.portInUse[w] &^= bit
					ref.portInUse[w] &^= bit
					held--
				}
			}
		}
	}
}
