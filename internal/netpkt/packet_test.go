package netpkt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleUDP() *Packet {
	return BuildUDPv4(UDPPacketSpec{
		SrcMAC:  MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   0x0a000001, // 10.0.0.1
		DstIP:   0xc0a80102, // 192.168.1.2
		SrcPort: 1234, DstPort: 53,
		Payload: []byte("hello world"),
		FlowID:  7,
	})
}

func TestBuildAndParseUDPv4(t *testing.T) {
	p := sampleUDP()
	if p.L3Proto != ProtoIPv4 {
		t.Fatalf("L3Proto = %#x, want IPv4", uint16(p.L3Proto))
	}
	if p.L4Proto != IPProtoUDP {
		t.Fatalf("L4Proto = %d, want UDP", p.L4Proto)
	}
	if p.L3Offset != EthernetHeaderLen || p.L4Offset != EthernetHeaderLen+IPv4MinHeaderLen {
		t.Fatalf("offsets = %d,%d", p.L3Offset, p.L4Offset)
	}
	if !IPv4HeaderChecksumOK(p.L3()) {
		t.Error("IPv4 header checksum does not verify")
	}
	ip, err := ParseIPv4(p.L3())
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != 0x0a000001 || ip.Dst != 0xc0a80102 {
		t.Errorf("addresses = %v -> %v", ip.Src, ip.Dst)
	}
	if ip.TTL != 64 {
		t.Errorf("TTL = %d, want 64", ip.TTL)
	}
	udp, err := ParseUDP(p.L4())
	if err != nil {
		t.Fatal(err)
	}
	if udp.SrcPort != 1234 || udp.DstPort != 53 {
		t.Errorf("ports = %d -> %d", udp.SrcPort, udp.DstPort)
	}
	if got := string(p.Payload()); got != "hello world" {
		t.Errorf("payload = %q", got)
	}
	// UDP checksum over the segment with checksum field included must
	// verify (sum to zero before complement == 0xffff check form).
	seg := append([]byte(nil), p.L4()...)
	csum := udp.Checksum
	seg[6], seg[7] = 0, 0
	if got := UDPChecksumIPv4(ip.Src, ip.Dst, seg); got != csum {
		t.Errorf("UDP checksum = %#04x, want %#04x", got, csum)
	}
}

func TestBuildAndParseTCPv4(t *testing.T) {
	p := BuildTCPv4(TCPPacketSpec{
		SrcIP: 1, DstIP: 2, SrcPort: 80, DstPort: 443,
		Seq: 1000, Ack: 2000, Flags: TCPSyn | TCPAck,
		Payload: []byte("GET /"),
	})
	if p.L4Proto != IPProtoTCP {
		t.Fatalf("L4Proto = %d, want TCP", p.L4Proto)
	}
	tcp, err := ParseTCP(p.L4())
	if err != nil {
		t.Fatal(err)
	}
	if tcp.Seq != 1000 || tcp.Ack != 2000 {
		t.Errorf("seq/ack = %d/%d", tcp.Seq, tcp.Ack)
	}
	if tcp.Flags != TCPSyn|TCPAck {
		t.Errorf("flags = %#x", tcp.Flags)
	}
	if got := string(p.Payload()); got != "GET /" {
		t.Errorf("payload = %q", got)
	}
}

func TestBuildAndParseUDPv6(t *testing.T) {
	src := IPv6Addr{Hi: 0x20010db800000000, Lo: 1}
	dst := IPv6Addr{Hi: 0x20010db800000000, Lo: 2}
	p := BuildUDPv6(UDPv6PacketSpec{
		SrcIP: src, DstIP: dst, SrcPort: 9, DstPort: 10,
		Payload: []byte("v6"),
	})
	if p.L3Proto != ProtoIPv6 || p.L4Proto != IPProtoUDP {
		t.Fatalf("protocols = %#x / %d", uint16(p.L3Proto), p.L4Proto)
	}
	ip, err := ParseIPv6(p.L3())
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != src || ip.Dst != dst {
		t.Errorf("addresses = %v -> %v", ip.Src, ip.Dst)
	}
	if string(p.Payload()) != "v6" {
		t.Errorf("payload = %q", p.Payload())
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),                      // short frame
		append(make([]byte, 12), 0x08, 0x00), // IPv4 ethertype, no header
		append(make([]byte, 12), 0x86, 0xDD), // IPv6 ethertype, no header
		append(make([]byte, 12), 0x12, 0x34), // unknown ethertype
	}
	for i, data := range cases {
		p := NewPacket(data)
		if err := p.Parse(); err == nil {
			t.Errorf("case %d: Parse succeeded on bad input", i)
		}
	}
}

func TestParseBadIHL(t *testing.T) {
	p := sampleUDP()
	p.Data[EthernetHeaderLen] = 4<<4 | 3 // IHL 12 bytes: invalid
	if err := p.Parse(); err == nil {
		t.Error("Parse accepted IHL < 20")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := sampleUDP()
	q := p.Clone()
	q.Data[0] ^= 0xff
	if bytes.Equal(p.Data, q.Data) {
		t.Error("Clone shares the data buffer")
	}
	if q.FlowID != p.FlowID || q.L4Offset != p.L4Offset {
		t.Error("Clone lost metadata")
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

// sumBytesRef is the one-16-bit-word-per-turn sum sumBytes replaced, kept as
// its reference.
func sumBytesRef(sum uint32, b []byte) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return sum
}

// TestChecksumMatchesWordLoop: at every length from 0 to 2100 bytes, of
// random bytes, zeros, ones, and ones ending in a 0x0001 word — whose 64-bit
// sum wraps when folded to 32 bits — Checksum, UDPChecksumIPv4 and
// TCPChecksumIPv4 return what the 16-bit reference loop computes.
func TestChecksumMatchesWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src, dst := IPv4Addr(rng.Uint32()), IPv4Addr(rng.Uint32())
	rnd := make([]byte, 2100)
	rng.Read(rnd)
	for n := 0; n <= len(rnd); n++ {
		ones := bytes.Repeat([]byte{0xff}, n)
		wrap := bytes.Repeat([]byte{0xff}, n)
		if n >= 2 {
			wrap[n-2], wrap[n-1] = 0, 1
		}
		for fill, b := range [][]byte{rnd[:n], make([]byte, n), ones, wrap} {
			if got, want := Checksum(b), finishChecksum(sumBytesRef(0, b)); got != want {
				t.Fatalf("fill %d, len %d: Checksum = %#04x, reference %#04x", fill, n, got, want)
			}
			udp := finishChecksum(sumBytesRef(pseudoHeaderSumIPv4(src, dst, IPProtoUDP, n), b))
			if udp == 0 {
				udp = 0xffff
			}
			if got := UDPChecksumIPv4(src, dst, b); got != udp {
				t.Fatalf("fill %d, len %d: UDPChecksumIPv4 = %#04x, reference %#04x", fill, n, got, udp)
			}
			tcp := finishChecksum(sumBytesRef(pseudoHeaderSumIPv4(src, dst, IPProtoTCP, n), b))
			if got := TCPChecksumIPv4(src, dst, b); got != tcp {
				t.Fatalf("fill %d, len %d: TCPChecksumIPv4 = %#04x, reference %#04x", fill, n, got, tcp)
			}
		}
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		c := Checksum(data)
		full := append(append([]byte(nil), data...), byte(c>>8), byte(c))
		// Appending the checksum makes the total sum verify only for
		// even-length data (odd data pads differently); restrict.
		if len(data)%2 == 1 {
			return true
		}
		return Checksum(full) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumIncrementalUpdate16(t *testing.T) {
	f := func(words []uint16, idx uint8, newVal uint16) bool {
		if len(words) == 0 {
			return true
		}
		i := int(idx) % len(words)
		buf := make([]byte, 2*len(words))
		for j, w := range words {
			buf[2*j] = byte(w >> 8)
			buf[2*j+1] = byte(w)
		}
		old := Checksum(buf)
		updated := ChecksumUpdate16(old, words[i], newVal)
		buf[2*i] = byte(newVal >> 8)
		buf[2*i+1] = byte(newVal)
		return updated == Checksum(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumIncrementalUpdate32(t *testing.T) {
	f := func(a, b uint32, newA uint32) bool {
		buf := make([]byte, 8)
		IPv4Addr(a).PutBytes(buf[0:4])
		IPv4Addr(b).PutBytes(buf[4:8])
		old := Checksum(buf)
		updated := ChecksumUpdate32(old, a, newA)
		IPv4Addr(newA).PutBytes(buf[0:4])
		return updated == Checksum(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv6AddrMaskAndBit(t *testing.T) {
	a := IPv6Addr{Hi: 0xffffffffffffffff, Lo: 0xffffffffffffffff}
	if m := a.Mask(0); m.Hi != 0 || m.Lo != 0 {
		t.Errorf("Mask(0) = %v", m)
	}
	if m := a.Mask(64); m.Hi != 0xffffffffffffffff || m.Lo != 0 {
		t.Errorf("Mask(64) = %v", m)
	}
	if m := a.Mask(128); m != a {
		t.Errorf("Mask(128) = %v", m)
	}
	if m := a.Mask(1); m.Hi != 1<<63 || m.Lo != 0 {
		t.Errorf("Mask(1) = %v", m)
	}
	b := IPv6Addr{Hi: 1 << 63}
	if b.Bit(0) != 1 || b.Bit(1) != 0 {
		t.Errorf("Bit(0)/Bit(1) = %d/%d", b.Bit(0), b.Bit(1))
	}
	c := IPv6Addr{Lo: 1}
	if c.Bit(127) != 1 || c.Bit(126) != 0 {
		t.Errorf("Bit(127)/Bit(126) = %d/%d", c.Bit(127), c.Bit(126))
	}
}

func TestIPv6MaskProperty(t *testing.T) {
	f := func(hi, lo uint64, plen uint8) bool {
		a := IPv6Addr{Hi: hi, Lo: lo}
		n := int(plen) % 129
		m := a.Mask(n)
		// Bits [0,n) preserved, bits [n,128) zero.
		for i := 0; i < 128; i++ {
			if i < n && m.Bit(i) != a.Bit(i) {
				return false
			}
			if i >= n && m.Bit(i) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestIPv4AddrString(t *testing.T) {
	if got := IPv4Addr(0xc0a80101).String(); got != "192.168.1.1" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseVLANTag(t *testing.T) {
	p := sampleUDP()
	// Insert an 802.1Q tag (VLAN 42, priority 3) after the MAC addresses.
	tagged := make([]byte, 0, len(p.Data)+4)
	tagged = append(tagged, p.Data[:12]...)
	tagged = append(tagged, 0x81, 0x00, 0x60|0, 42) // TPID, TCI (prio 3, vid 42)
	tagged = append(tagged, p.Data[12:]...)
	q := NewPacket(tagged)
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.VLANID != 42 {
		t.Errorf("VLANID = %d", q.VLANID)
	}
	if q.L3Proto != ProtoIPv4 {
		t.Errorf("inner L3 = %#x", uint16(q.L3Proto))
	}
	if q.L3Offset != EthernetHeaderLen+4 {
		t.Errorf("L3Offset = %d", q.L3Offset)
	}
	ip, err := ParseIPv4(q.L3())
	if err != nil {
		t.Fatal(err)
	}
	if ip.Dst != 0xc0a80102 {
		t.Errorf("inner dst = %v", ip.Dst)
	}
	if got := string(q.Payload()); got != "hello world" {
		t.Errorf("payload through VLAN = %q", got)
	}
}

func TestParseTruncatedVLAN(t *testing.T) {
	data := append(make([]byte, 12), 0x81, 0x00)
	if err := NewPacket(data).Parse(); err == nil {
		t.Error("truncated VLAN tag accepted")
	}
}

func TestParseUntaggedHasZeroVLAN(t *testing.T) {
	p := sampleUDP()
	if p.VLANID != 0 {
		t.Errorf("VLANID = %d on untagged frame", p.VLANID)
	}
}

func TestParseIPv6ExtensionHeaders(t *testing.T) {
	// Build: Ethernet | IPv6 (next=hop-by-hop) | hop-by-hop (next=UDP,
	// len 0 -> 8 bytes) | UDP | payload.
	p := BuildUDPv6(UDPv6PacketSpec{
		SrcIP: IPv6Addr{Hi: 1}, DstIP: IPv6Addr{Hi: 2},
		SrcPort: 7, DstPort: 9, Payload: []byte("ext"),
	})
	udpAndPayload := append([]byte(nil), p.Data[EthernetHeaderLen+IPv6HeaderLen:]...)
	ext := make([]byte, 8)
	ext[0] = byte(IPProtoUDP) // next header
	ext[1] = 0                // 8 bytes total

	data := make([]byte, 0, len(p.Data)+8)
	data = append(data, p.Data[:EthernetHeaderLen+IPv6HeaderLen]...)
	data = append(data, ext...)
	data = append(data, udpAndPayload...)
	data[EthernetHeaderLen+6] = byte(IPProtoHopByHop) // IPv6 next-header
	// Fix payload length (+8).
	plen := int(data[EthernetHeaderLen+4])<<8 | int(data[EthernetHeaderLen+5])
	plen += 8
	data[EthernetHeaderLen+4], data[EthernetHeaderLen+5] = byte(plen>>8), byte(plen)

	q := NewPacket(data)
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.L4Proto != IPProtoUDP {
		t.Fatalf("L4Proto = %d", q.L4Proto)
	}
	if q.L4Offset != EthernetHeaderLen+IPv6HeaderLen+8 {
		t.Fatalf("L4Offset = %d", q.L4Offset)
	}
	if got := string(q.Payload()); got != "ext" {
		t.Errorf("payload = %q", got)
	}
}

func TestParseIPv6FragmentHeader(t *testing.T) {
	p := BuildUDPv6(UDPv6PacketSpec{
		SrcIP: IPv6Addr{Hi: 1}, DstIP: IPv6Addr{Hi: 2},
		SrcPort: 7, DstPort: 9, Payload: []byte("frag"),
	})
	rest := append([]byte(nil), p.Data[EthernetHeaderLen+IPv6HeaderLen:]...)
	frag := make([]byte, 8)
	frag[0] = byte(IPProtoUDP)
	data := append(append(append([]byte(nil),
		p.Data[:EthernetHeaderLen+IPv6HeaderLen]...), frag...), rest...)
	data[EthernetHeaderLen+6] = byte(IPProtoFragment)
	q := NewPacket(data)
	if err := q.Parse(); err != nil {
		t.Fatal(err)
	}
	if q.L4Proto != IPProtoUDP || string(q.Payload()) != "frag" {
		t.Errorf("proto=%d payload=%q", q.L4Proto, q.Payload())
	}
}

func TestParseIPv6NoNextHeader(t *testing.T) {
	p := BuildUDPv6(UDPv6PacketSpec{SrcIP: IPv6Addr{Hi: 1}, DstIP: IPv6Addr{Hi: 2}})
	p.Data[EthernetHeaderLen+6] = byte(IPProtoNoNext)
	if err := p.Parse(); err != nil {
		t.Fatal(err)
	}
	if p.L4Offset != -1 {
		t.Errorf("L4Offset = %d for no-next-header", p.L4Offset)
	}
	if p.L4() != nil {
		t.Error("L4 should be nil")
	}
}

func TestParseIPv6TruncatedExtension(t *testing.T) {
	p := BuildUDPv6(UDPv6PacketSpec{SrcIP: IPv6Addr{Hi: 1}, DstIP: IPv6Addr{Hi: 2}})
	data := p.Data[:EthernetHeaderLen+IPv6HeaderLen+1] // 1 byte of ext hdr
	data[EthernetHeaderLen+6] = byte(IPProtoHopByHop)
	q := NewPacket(data)
	if err := q.Parse(); err == nil {
		t.Error("truncated extension header accepted")
	}
}

func BenchmarkParse(b *testing.B) {
	p := sampleUDP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Parse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildUDPv4(b *testing.B) {
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		netpktBenchSink = BuildUDPv4(UDPPacketSpec{
			SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Payload: payload,
		})
	}
}

var netpktBenchSink *Packet

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		_ = Checksum(data)
	}
}
