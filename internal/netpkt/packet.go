package netpkt

import (
	"encoding/binary"
	"fmt"
)

// Proto identifies an L3 protocol carried in an Ethernet frame.
type Proto uint16

// EtherType values for the protocols the framework parses.
const (
	ProtoIPv4 Proto = 0x0800
	ProtoIPv6 Proto = 0x86DD
	ProtoARP  Proto = 0x0806
	ProtoVLAN Proto = 0x8100 // 802.1Q tag
)

// IPProto identifies an L4 protocol carried in an IP packet.
type IPProto uint8

// IP protocol numbers used by the network functions.
const (
	IPProtoICMP     IPProto = 1
	IPProtoTCP      IPProto = 6
	IPProtoUDP      IPProto = 17
	IPProtoESP      IPProto = 50
	IPProtoAH       IPProto = 51
	IPProtoHopByHop IPProto = 0  // IPv6 hop-by-hop options
	IPProtoRouting  IPProto = 43 // IPv6 routing header
	IPProtoFragment IPProto = 44 // IPv6 fragment header
	IPProtoDstOpts  IPProto = 60 // IPv6 destination options
	IPProtoNoNext   IPProto = 59 // IPv6 no next header
)

// Packet is a single network packet: the wire bytes plus element metadata.
//
// The zero value is an empty packet; most callers construct packets with
// NewPacket or one of the builders in this package.
type Packet struct {
	// Data holds the wire bytes starting at the Ethernet header.
	Data []byte

	// Arrival is the simulated arrival timestamp in nanoseconds.
	Arrival int64
	// Departure is set when the packet leaves the chain (simulated ns).
	Departure int64

	// FlowID identifies the flow this packet belongs to. Generators assign
	// it; stateful elements (NAT, IDS stream reassembly) key on it.
	FlowID uint64

	// Tenant tags the packet with its owning chain on a shared
	// multi-tenant dataplane (0 = untagged/single-tenant). The control
	// plane's ingress sets it and the TenantDemux element routes on it;
	// clones inherit it like every other annotation.
	Tenant uint16

	// Paint is the Click paint annotation (Paint and load-balancer elements).
	Paint byte

	// SeqInBatch is the packet's position in its original input batch. The
	// CompletionQueue uses it to release packets in arrival order.
	SeqInBatch int

	// L3Offset and L4Offset are byte offsets of the network and transport
	// headers within Data. They are -1 until Parse locates the headers.
	L3Offset int
	L4Offset int

	// L3Proto is the EtherType found by Parse.
	L3Proto Proto
	// L4Proto is the IP protocol found by Parse.
	L4Proto IPProto

	// VLANID is the 802.1Q VLAN identifier (0 when untagged); Parse
	// fills it when the frame carries a VLAN tag.
	VLANID uint16

	// Dropped marks the packet as dropped by an element. Dropped packets
	// stay in their batch slot (so order bookkeeping survives) but are
	// skipped by subsequent elements.
	Dropped bool

	// DropReason records which element dropped the packet, for counters.
	DropReason string

	// UserAnno is a small scratch annotation area available to elements,
	// mirroring Click's user annotation bytes.
	UserAnno [16]byte

	// shared marks Data as aliased by a shallow clone (or as the aliasing
	// clone itself); PutPacket refuses to recycle shared buffers.
	shared bool
	// pooled marks the packet as released; PutPacket uses it to panic on
	// double release.
	pooled bool
	// arena is the recycling domain this packet was drawn from (nil for
	// packets built outside any arena); PutPacket routes the release there.
	arena *Arena
	// counted marks the packet as included in its arena's outstanding
	// ledger (set by Arena.GetPacket, cleared by PutPacket); clones never
	// inherit it, so the audit tracks each drawn buffer exactly once (and
	// a released arena packet without it is a shallow-clone header).
	counted bool
}

// NewPacket returns a packet wrapping data. Offsets are unset (-1).
func NewPacket(data []byte) *Packet {
	return &Packet{Data: data, L3Offset: -1, L4Offset: -1}
}

// Clone returns a deep copy of the packet. Parallelized SFC branches operate
// on clones and the XOR merge reconciles their modifications.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Data = make([]byte, len(p.Data))
	copy(q.Data, p.Data)
	q.shared, q.pooled, q.arena, q.counted = false, false, nil, false
	return &q
}

// CloneInto deep-copies p into q, reusing q's buffer capacity when it
// suffices. q's previous contents are discarded, but q keeps its own arena
// affinity: the copy releases back to the pool it was drawn from, not to
// the source packet's.
func (p *Packet) CloneInto(q *Packet) {
	data := q.Data
	arena := q.arena
	counted := q.counted
	if cap(data) < len(p.Data) {
		data = make([]byte, len(p.Data))
	} else {
		data = data[:len(p.Data)]
	}
	copy(data, p.Data)
	*q = *p
	q.Data = data
	q.arena = arena
	q.counted = counted
	q.shared, q.pooled = false, false
}

// shallowClone copies the packet struct — annotations, offsets, drop state
// — but shares the wire bytes with the original. It is the copy the
// optimized duplication scheme hands to branches whose hazard analysis
// proves they never write packet bytes (RAR sharing, Table III): annotation
// writes stay private, byte writes would corrupt the sibling. Both the
// original and the clone are marked shared so neither buffer is ever
// recycled by the arena while the other may still read it.
//
// The clone is a pooled header: a is p's arena (the default one for
// packets built outside any), whose lock the caller holds, and PutPacket
// returns the clone there, to a stack of buffer-less headers that GetPacket
// never draws from. Once every clone is released, Unshare makes p's buffer
// recyclable again.
func (a *Arena) shallowClone(p *Packet) *Packet {
	p.shared = true
	q := a.headers.pop()
	*q = *p
	q.pooled, q.arena, q.counted = false, a, false
	return q
}

// Unshare declares that no shallow clone reads p's wire bytes any more, so
// they are private again and PutPacket may recycle them. The caller vouches
// for that (the parallel stage's merge, which collects every clone its
// duplicator made) and for p not being a shallow clone itself, whose bytes
// would belong to someone else.
func (p *Packet) Unshare() { p.shared = false }

// Grow extends Data by n bytes at the tail, whose contents are unspecified
// (DPDK's rte_pktmbuf_append). A packet owns its buffer up to cap(Data)
// unless it is shared, so the bytes are appended in place when that room
// suffices; a shared packet, or one without the room, moves to a fresh
// buffer with its bytes copied, and an arena packet recycles that buffer,
// room included.
func (p *Packet) Grow(n int) {
	if l := len(p.Data) + n; l <= cap(p.Data) && !p.shared {
		p.Data = p.Data[:l]
	} else {
		p.Data = append(p.Data[:len(p.Data):len(p.Data)], make([]byte, n)...)
	}
}

// FlowKey returns the packet's flow-affinity key, which keeps every packet
// of a flow on the same shard where no IP flow tuple is available. The
// FlowID annotation wins when set (generators and stateful NFs key on it);
// otherwise the key is a hash of the 5-tuple read directly from the wire
// bytes, and as a last resort a hash of the frame prefix. The key is
// finalized through a 64-bit mixer so sequential flow IDs spread evenly
// across any shard count.
func (p *Packet) FlowKey() uint64 {
	if p.FlowID != 0 {
		return mix64(p.FlowID)
	}
	if k, ok := p.wireFlowKey(); ok {
		return mix64(k)
	}
	n := len(p.Data)
	if n > 64 {
		n = 64
	}
	var h uint64 = 14695981039346656037
	for _, c := range p.Data[:n] {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return mix64(h)
}

// wireFlowKey extracts a 5-tuple hash for plain IPv4/IPv6 frames without
// mutating the packet (unlike Parse, it sets no offsets).
func (p *Packet) wireFlowKey() (uint64, bool) {
	if len(p.Data) < EthernetHeaderLen {
		return 0, false
	}
	proto := Proto(uint16(p.Data[12])<<8 | uint16(p.Data[13]))
	l3 := EthernetHeaderLen
	if proto == ProtoVLAN {
		if len(p.Data) < EthernetHeaderLen+4 {
			return 0, false
		}
		proto = Proto(uint16(p.Data[16])<<8 | uint16(p.Data[17]))
		l3 += 4
	}
	var h uint64 = 14695981039346656037
	fnv := func(bs []byte) {
		for _, c := range bs {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	switch proto {
	case ProtoIPv4:
		if len(p.Data) < l3+IPv4MinHeaderLen {
			return 0, false
		}
		ihl := int(p.Data[l3]&0x0f) * 4
		fnv(p.Data[l3+9 : l3+10])  // protocol
		fnv(p.Data[l3+12 : l3+20]) // src+dst address
		l4 := l3 + ihl
		if ip := IPProto(p.Data[l3+9]); (ip == IPProtoTCP || ip == IPProtoUDP) &&
			len(p.Data) >= l4+4 {
			fnv(p.Data[l4 : l4+4]) // src+dst port
		}
		return h, true
	case ProtoIPv6:
		if len(p.Data) < l3+IPv6HeaderLen {
			return 0, false
		}
		fnv(p.Data[l3+6 : l3+7])  // next header
		fnv(p.Data[l3+8 : l3+40]) // src+dst address
		l4 := l3 + IPv6HeaderLen
		if ip := IPProto(p.Data[l3+6]); (ip == IPProtoTCP || ip == IPProtoUDP) &&
			len(p.Data) >= l4+4 {
			fnv(p.Data[l4 : l4+4])
		}
		return h, true
	}
	return 0, false
}

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche so that
// near-sequential keys (flow IDs) land on distinct shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the wire length of the packet in bytes.
func (p *Packet) Len() int { return len(p.Data) }

// Drop marks the packet dropped, recording the responsible element.
func (p *Packet) Drop(reason string) {
	p.Dropped = true
	p.DropReason = reason
}

// Parse locates the L3 and L4 headers, filling the offset and protocol
// fields. It returns an error for truncated or unsupported packets; such
// packets keep offset -1 for the header that could not be located.
func (p *Packet) Parse() error {
	p.L3Offset, p.L4Offset = -1, -1
	p.VLANID = 0
	if len(p.Data) < EthernetHeaderLen {
		return fmt.Errorf("netpkt: frame too short: %d bytes", len(p.Data))
	}
	p.L3Proto = Proto(binary.BigEndian.Uint16(p.Data[12:14]))
	p.L3Offset = EthernetHeaderLen
	if p.L3Proto == ProtoVLAN {
		// 802.1Q: TCI (2 bytes) + inner EtherType (2 bytes).
		if len(p.Data) < EthernetHeaderLen+4 {
			return fmt.Errorf("netpkt: truncated 802.1Q tag")
		}
		p.VLANID = binary.BigEndian.Uint16(p.Data[14:16]) & 0x0fff
		p.L3Proto = Proto(binary.BigEndian.Uint16(p.Data[16:18]))
		p.L3Offset += 4
	}
	switch p.L3Proto {
	case ProtoIPv4:
		if len(p.Data) < p.L3Offset+IPv4MinHeaderLen {
			return fmt.Errorf("netpkt: truncated IPv4 header")
		}
		ihl := int(p.Data[p.L3Offset]&0x0f) * 4
		if ihl < IPv4MinHeaderLen || len(p.Data) < p.L3Offset+ihl {
			return fmt.Errorf("netpkt: bad IPv4 IHL %d", ihl)
		}
		p.L4Proto = IPProto(p.Data[p.L3Offset+9])
		p.L4Offset = p.L3Offset + ihl
	case ProtoIPv6:
		if len(p.Data) < p.L3Offset+IPv6HeaderLen {
			return fmt.Errorf("netpkt: truncated IPv6 header")
		}
		next := IPProto(p.Data[p.L3Offset+6])
		off := p.L3Offset + IPv6HeaderLen
		// Walk the extension-header chain to the upper-layer header.
		for hops := 0; hops < 8; hops++ {
			switch next {
			case IPProtoHopByHop, IPProtoRouting, IPProtoDstOpts:
				if len(p.Data) < off+2 {
					return fmt.Errorf("netpkt: truncated IPv6 extension header")
				}
				hlen := 8 + int(p.Data[off+1])*8
				if len(p.Data) < off+hlen {
					return fmt.Errorf("netpkt: truncated IPv6 extension header")
				}
				next = IPProto(p.Data[off])
				off += hlen
				continue
			case IPProtoFragment:
				if len(p.Data) < off+8 {
					return fmt.Errorf("netpkt: truncated IPv6 fragment header")
				}
				next = IPProto(p.Data[off])
				off += 8
				continue
			case IPProtoNoNext:
				p.L4Proto = next
				p.L4Offset = -1
				return nil
			}
			break
		}
		p.L4Proto = next
		p.L4Offset = off
	default:
		return fmt.Errorf("netpkt: unsupported ethertype %#04x", uint16(p.L3Proto))
	}
	return nil
}

// L3 returns the bytes of the network header and beyond, or nil if the
// packet has not been parsed.
func (p *Packet) L3() []byte {
	if p.L3Offset < 0 || p.L3Offset > len(p.Data) {
		return nil
	}
	return p.Data[p.L3Offset:]
}

// L4 returns the bytes of the transport header and beyond, or nil if the
// packet has not been parsed as IP.
func (p *Packet) L4() []byte {
	if p.L4Offset < 0 || p.L4Offset > len(p.Data) {
		return nil
	}
	return p.Data[p.L4Offset:]
}

// Payload returns the application payload bytes (after the L4 header), or
// nil when offsets are unknown. For TCP the data offset field is honoured.
func (p *Packet) Payload() []byte {
	l4 := p.L4()
	if l4 == nil {
		return nil
	}
	switch p.L4Proto {
	case IPProtoUDP:
		if len(l4) < UDPHeaderLen {
			return nil
		}
		return l4[UDPHeaderLen:]
	case IPProtoTCP:
		if len(l4) < TCPMinHeaderLen {
			return nil
		}
		off := int(l4[12]>>4) * 4
		if off < TCPMinHeaderLen || off > len(l4) {
			return nil
		}
		return l4[off:]
	default:
		return l4
	}
}

// String implements fmt.Stringer with a compact packet summary.
func (p *Packet) String() string {
	state := "live"
	if p.Dropped {
		state = "dropped(" + p.DropReason + ")"
	}
	return fmt.Sprintf("Packet{len=%d flow=%d paint=%d l3=%#04x l4=%d %s}",
		len(p.Data), p.FlowID, p.Paint, uint16(p.L3Proto), uint8(p.L4Proto), state)
}
