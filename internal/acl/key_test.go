package acl

import (
	"testing"

	"nfcompass/internal/netpkt"
)

// keyFromPacketRef is the extractor KeyFromPacket must agree with: the
// whole IPv4 header decoded by netpkt.ParseIPv4, the ports read off the L4
// header of TCP and UDP.
func keyFromPacketRef(p *netpkt.Packet) (Key, bool) {
	var k Key
	if p.L3Proto != netpkt.ProtoIPv4 || p.L4Offset < 0 {
		return k, false
	}
	ip, err := netpkt.ParseIPv4(p.L3())
	if err != nil {
		return k, false
	}
	k.Src, k.Dst, k.Proto = ip.Src, ip.Dst, ip.Protocol
	l4 := p.L4()
	switch ip.Protocol {
	case netpkt.IPProtoUDP, netpkt.IPProtoTCP:
		if len(l4) < 4 {
			return k, false
		}
		k.SrcPort = uint16(l4[0])<<8 | uint16(l4[1])
		k.DstPort = uint16(l4[2])<<8 | uint16(l4[3])
	}
	return k, true
}

// vlanTagged inserts an 802.1Q tag into an untagged frame.
func vlanTagged(data []byte) []byte {
	out := append([]byte{}, data[:12]...)
	out = append(out, 0x81, 0x00, 0x00, 0x2a)
	return append(out, data[12:]...)
}

// parsed returns a packet over data, parsed, then with edit applied to its
// bytes (a header rewritten after parsing, which Parse did not see).
func parsed(data []byte, edit func(b []byte)) *netpkt.Packet {
	p := netpkt.NewPacket(data)
	_ = p.Parse()
	if edit != nil {
		edit(p.Data)
	}
	return p
}

// keyFrame is a labelled frame and whether KeyFromPacket accepts it.
type keyFrame struct {
	name string
	p    *netpkt.Packet
	ok   bool
}

// keyFrames are frames for every path of KeyFromPacket: accepted TCP, UDP,
// VLAN-tagged and other-protocol frames, and each refusal.
func keyFrames() []keyFrame {
	udp := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 0x0a000001, DstIP: 0xc0a80102,
		SrcPort: 1111, DstPort: 53, Payload: []byte("query")}).Data
	tcp := netpkt.BuildTCPv4(netpkt.TCPPacketSpec{SrcIP: 0x0a000002, DstIP: 0xc0a80103,
		SrcPort: 40000, DstPort: 443}).Data
	const l3 = netpkt.EthernetHeaderLen
	clone := func(b []byte) []byte { return append([]byte{}, b...) }
	setL3 := func(off int, v byte) func([]byte) { return func(b []byte) { b[l3+off] = v } }
	cut := func(p *netpkt.Packet, n int) *netpkt.Packet { p.Data = p.Data[:n]; return p }
	return []keyFrame{
		{"udp", parsed(clone(udp), nil), true},
		{"tcp", parsed(clone(tcp), nil), true},
		{"vlan-udp", parsed(vlanTagged(udp), nil), true},
		{"vlan-tcp", parsed(vlanTagged(tcp), nil), true},
		{"icmp", parsed(clone(udp), setL3(9, 1)), true},
		{"gre-no-ports", parsed(clone(udp)[:l3+22], setL3(9, 47)), true},
		{"version6", parsed(clone(udp), setL3(0, 0x65)), false},
		{"version6-vlan", parsed(vlanTagged(udp), func(b []byte) { b[l3+4] = 0x65 }), false},
		{"ihl4", parsed(clone(udp), setL3(0, 0x44)), false},
		{"ihl4-reparsed", parsed(func() []byte { b := clone(udp); b[l3] = 0x44; return b }(), nil), false},
		{"ihl15-past-buffer", parsed(clone(udp), setL3(0, 0x4f)), false},
		{"udp-truncated", parsed(clone(udp)[:l3+23], nil), false},
		{"tcp-truncated", parsed(clone(tcp)[:l3+22], nil), false},
		{"l3-short", cut(parsed(clone(udp), nil), l3+19), false}, // cut after parsing
		{"ipv6", netpkt.BuildUDPv6(netpkt.UDPv6PacketSpec{SrcPort: 1, DstPort: 2}), false},
		{"unparsed", netpkt.NewPacket(make([]byte, 10)), false},
	}
}

// TestKeyFromPacketMatchesReference pins KeyFromPacket to the ParseIPv4
// extractor on every frame shape: the same key and the same verdict.
func TestKeyFromPacketMatchesReference(t *testing.T) {
	for _, f := range keyFrames() {
		k, ok := KeyFromPacket(f.p)
		rk, rok := keyFromPacketRef(f.p)
		if k != rk || ok != rok {
			t.Errorf("%s: (%+v, %v), reference (%+v, %v)", f.name, k, ok, rk, rok)
		}
		if ok != f.ok {
			t.Errorf("%s: ok = %v, want %v", f.name, ok, f.ok)
		}
	}
}

// FuzzKeyFromPacket feeds both extractors arbitrary frames: parsed as
// received, parsed and then given a new first IPv4 byte (version and IHL),
// or carrying arbitrary header offsets.
func FuzzKeyFromPacket(f *testing.F) {
	for i, fr := range keyFrames() {
		f.Add(fr.p.Data, uint8(i%3), byte(0x45), int8(fr.p.L3Offset), int8(fr.p.L4Offset))
	}
	f.Fuzz(func(t *testing.T, data []byte, mode, first byte, l3, l4 int8) {
		p := netpkt.NewPacket(data)
		_ = p.Parse()
		switch mode % 3 {
		case 1:
			if p.L3Offset >= 0 && p.L3Offset < len(p.Data) {
				p.Data[p.L3Offset] = first
			}
		case 2:
			p.L3Proto, p.L3Offset, p.L4Offset = netpkt.ProtoIPv4, int(l3), int(l4)
		}
		k, ok := KeyFromPacket(p)
		rk, rok := keyFromPacketRef(p)
		if k != rk || ok != rok {
			t.Fatalf("(%+v, %v), reference (%+v, %v)", k, ok, rk, rok)
		}
	})
}
