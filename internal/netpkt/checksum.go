package netpkt

import "encoding/binary"

// Checksum computes the Internet checksum (RFC 1071) over b.
func Checksum(b []byte) uint16 {
	return finishChecksum(sumBytes(0, b))
}

// sumBytes adds b to a running 32-bit one's-complement accumulator. A
// one's-complement sum is the same at any word width once the carries are
// folded back in (RFC 1071 §2), so it loads eight bytes at a time and adds
// their 32-bit halves into a 64-bit sum, which no buffer under 16 GiB can
// overflow, then folds that sum to 32 bits.
func sumBytes(sum uint32, b []byte) uint32 {
	s := uint64(sum)
	for ; len(b) >= 8; b = b[8:] {
		w := binary.BigEndian.Uint64(b)
		s += w>>32 + w&0xffffffff
	}
	if len(b) >= 4 {
		s += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		s += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		s += uint64(b[0]) << 8
	}
	s = s>>32 + s&0xffffffff
	return uint32(s>>32 + s&0xffffffff)
}

func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSumIPv4 returns the partial sum of the IPv4 pseudo-header used
// by the TCP and UDP checksums.
func pseudoHeaderSumIPv4(src, dst IPv4Addr, proto IPProto, l4len int) uint32 {
	var sum uint32
	sum += uint32(src) >> 16
	sum += uint32(src) & 0xffff
	sum += uint32(dst) >> 16
	sum += uint32(dst) & 0xffff
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// UDPChecksumIPv4 computes the UDP checksum for a UDP segment carried over
// IPv4 with the given addresses. seg includes the UDP header with a zero
// checksum field.
func UDPChecksumIPv4(src, dst IPv4Addr, seg []byte) uint16 {
	sum := pseudoHeaderSumIPv4(src, dst, IPProtoUDP, len(seg))
	c := finishChecksum(sumBytes(sum, seg))
	if c == 0 {
		c = 0xffff // 0 means "no checksum" in UDP
	}
	return c
}

// TCPChecksumIPv4 computes the TCP checksum for a TCP segment carried over
// IPv4. seg includes the TCP header with a zero checksum field.
func TCPChecksumIPv4(src, dst IPv4Addr, seg []byte) uint16 {
	sum := pseudoHeaderSumIPv4(src, dst, IPProtoTCP, len(seg))
	return finishChecksum(sumBytes(sum, seg))
}

// ChecksumUpdate16 incrementally updates checksum old when a 16-bit field
// changes from oldField to newField (RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')).
// NAT uses it to fix IP and L4 checksums without re-summing the packet.
func ChecksumUpdate16(old, oldField, newField uint16) uint16 {
	sum := uint32(^old) + uint32(^oldField) + uint32(newField)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ChecksumUpdate32 incrementally updates a checksum when a 32-bit field
// (e.g. an IPv4 address) changes.
func ChecksumUpdate32(old uint16, oldField, newField uint32) uint16 {
	c := ChecksumUpdate16(old, uint16(oldField>>16), uint16(newField>>16))
	return ChecksumUpdate16(c, uint16(oldField&0xffff), uint16(newField&0xffff))
}
