package ingress

// Toeplitz receive-side scaling, the flow→queue spreading contract of every
// multi-queue NIC since the Microsoft RSS specification: hash the flow
// tuple with a Toeplitz matrix derived from a 40-byte secret key, then look
// the hash's low bits up in an indirection table that maps to a receive
// queue. Emulating the exact algorithm (not an arbitrary hash) matters for
// two reasons: the mapping is reproducible against real hardware — a flow
// lands on the same queue here as it would on an RSS NIC configured with
// the same key — and the known-answer vectors Microsoft publishes pin the
// implementation down in tests.

import (
	"encoding/binary"

	"nfcompass/internal/netpkt"
)

// DefaultRSSKey is the 40-byte hash key from the Microsoft RSS
// verification suite — the de-facto default key of most NIC drivers, and
// the key the published known-answer vectors assume.
var DefaultRSSKey = [40]byte{
	0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
	0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
	0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
	0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
	0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
}

// rssIndirection is the indirection table size: 128 entries indexed by the
// low 7 bits of the hash, the size the RSS spec mandates as the minimum
// and most NICs ship.
const rssIndirection = 128

// RSS is a Toeplitz hasher plus indirection table. Construct with NewRSS;
// safe for concurrent use (read-only after construction).
type RSS struct {
	// tbl[i][v] is the Toeplitz contribution of input byte i having value
	// v: the XOR of the 32-bit key windows at the byte's set bit
	// positions. Precomputing it turns the per-packet hash into one table
	// lookup and XOR per input byte instead of a bit walk.
	tbl [][256]uint32
	// indirection maps hash&127 → queue.
	indirection [rssIndirection]int
}

// NewRSS builds a hasher over the default key with a round-robin
// indirection table across queues (the reset-state table real drivers
// program).
func NewRSS(queues int) *RSS {
	return NewRSSWithKey(DefaultRSSKey, queues)
}

// NewRSSWithKey builds a hasher over an explicit 40-byte key.
func NewRSSWithKey(key [40]byte, queues int) *RSS {
	if queues < 1 {
		queues = 1
	}
	// 40 key bytes support inputs up to 36 bytes (each input bit i needs
	// key bits i..i+31) — exactly the IPv6 4-tuple, the largest RSS input.
	r := &RSS{tbl: make([][256]uint32, 36)}
	for i := range r.tbl {
		for v := 0; v < 256; v++ {
			var h uint32
			for bit := 0; bit < 8; bit++ {
				if v&(0x80>>bit) != 0 {
					h ^= keyWindow(key[:], i*8+bit)
				}
			}
			r.tbl[i][v] = h
		}
	}
	for i := range r.indirection {
		r.indirection[i] = i % queues
	}
	return r
}

// keyWindow extracts key bits j..j+31 as a uint32 (MSB-first bit order, as
// the RSS spec reads the key).
func keyWindow(key []byte, j int) uint32 {
	var w uint64
	for i := 0; i < 8; i++ {
		var b byte
		if j/8+i < len(key) {
			b = key[j/8+i]
		}
		w = w<<8 | uint64(b)
	}
	return uint32(w >> (32 - j%8))
}

// Hash computes the Toeplitz hash of an arbitrary input (at most 36
// bytes; longer inputs use only the first 36).
func (r *RSS) Hash(input []byte) uint32 {
	if len(input) > len(r.tbl) {
		input = input[:len(r.tbl)]
	}
	var h uint32
	for i, v := range input {
		h ^= r.tbl[i][v]
	}
	return h
}

// Hash4 hashes an IPv4 4-tuple in the spec's input order: source address,
// destination address, source port, destination port (all in network byte
// order on the wire; here as host-order integers).
func (r *RSS) Hash4(src, dst uint32, srcPort, dstPort uint16) uint32 {
	var in [12]byte
	binary.BigEndian.PutUint32(in[0:4], src)
	binary.BigEndian.PutUint32(in[4:8], dst)
	binary.BigEndian.PutUint16(in[8:10], srcPort)
	binary.BigEndian.PutUint16(in[10:12], dstPort)
	return r.Hash(in[:])
}

// HashPacket hashes a parsed packet the way a NIC classifies it (see
// flowTuple for the input).
func (r *RSS) HashPacket(p *netpkt.Packet) uint32 {
	var in [36]byte
	return r.Hash(in[:flowTuple(p, &in)])
}

// flowTuple writes p's hash input into in and returns its length: the
// TCP/UDP 4-tuple when ports are present, the address 2-tuple for other IP
// traffic, and a FlowKey-derived fallback for non-IP frames (real NICs send
// those to queue 0; hashing the synthetic flow key keeps the emulation's
// flow-affinity contract intact for generator traffic too).
func flowTuple(p *netpkt.Packet, in *[36]byte) int {
	n := 0
	switch {
	case p.L3Offset >= 0 && p.L3Proto == netpkt.ProtoIPv4 && len(p.L3()) >= 20:
		n = copy(in[:], p.L3()[12:20]) // src, dst
	case p.L3Offset >= 0 && p.L3Proto == netpkt.ProtoIPv6 && len(p.L3()) >= 40:
		n = copy(in[:], p.L3()[8:40]) // src, dst
	default:
		binary.BigEndian.PutUint64(in[:8], p.FlowKey())
		return 8
	}
	if l4 := p.L4(); (p.L4Proto == netpkt.IPProtoTCP || p.L4Proto == netpkt.IPProtoUDP) && len(l4) >= 4 {
		n += copy(in[n:], l4[0:4]) // src port, dst port
	}
	return n
}

// Queue maps a packet to its receive queue through the indirection table.
func (r *RSS) Queue(p *netpkt.Packet) int {
	return r.indirection[r.HashPacket(p)&(rssIndirection-1)]
}

// QueueBatch classifies a whole read batch, appending each packet's queue to
// dst (reused across calls: pass dst[:0]) and returning it — the mapping
// Queue makes, packet for packet.
func (r *RSS) QueueBatch(pkts []*netpkt.Packet, dst []int) []int {
	var in [36]byte
	for _, p := range pkts {
		dst = append(dst, r.indirection[r.Hash(in[:flowTuple(p, &in)])&(rssIndirection-1)])
	}
	return dst
}
