// Package acl implements 5-tuple packet classification for the firewall
// network function: rule representation, a ClassBench-style synthetic rule
// generator (the paper uses ClassBench ACLs of 200/1000/10000 rules for the
// Fig. 17 validation), a linear matcher, and a HiCuts-style decision-tree
// classifier whose size growth with rule count reproduces the
// classification-tree blowup that degrades the FastClick and NBA baselines.
// The tree's leaves scan the rules compiled once into mask/value pairs and
// port ranges, and the linear matcher is its fuzz-verified oracle
// (FuzzTreeVsLinear).
package acl

import (
	"encoding/binary"

	"nfcompass/internal/netpkt"
)

// Action is what a matching rule does with the packet.
type Action uint8

// Rule actions.
const (
	Permit Action = iota
	Deny
)

// String implements fmt.Stringer.
func (a Action) String() string {
	if a == Deny {
		return "deny"
	}
	return "permit"
}

// PortRange is an inclusive [Lo, Hi] range of L4 ports.
type PortRange struct {
	Lo, Hi uint16
}

// AnyPort matches every port.
var AnyPort = PortRange{0, 65535}

// Rule is one 5-tuple classification rule. Priority is its position: lower
// index = higher priority (first match wins).
type Rule struct {
	SrcAddr netpkt.IPv4Addr
	SrcPlen int
	DstAddr netpkt.IPv4Addr
	DstPlen int
	SrcPort PortRange
	DstPort PortRange
	// Proto matches the IP protocol; ProtoAny matches all protocols.
	Proto    netpkt.IPProto
	ProtoAny bool
	Action   Action
}

// Key is the 5-tuple extracted from a packet.
type Key struct {
	Src, Dst         netpkt.IPv4Addr
	SrcPort, DstPort uint16
	Proto            netpkt.IPProto
}

// KeyFromPacket extracts the 5-tuple of a parsed IPv4 packet, reading the
// header fields in place. It returns false for non-IPv4 packets, a header
// that is short, not version 4 or has a bad IHL, and a TCP or UDP header
// shorter than its ports.
func KeyFromPacket(p *netpkt.Packet) (Key, bool) {
	var k Key
	if p.L3Proto != netpkt.ProtoIPv4 || p.L4Offset < 0 {
		return k, false
	}
	h := p.L3()
	if len(h) < netpkt.IPv4MinHeaderLen || h[0]>>4 != 4 {
		return k, false
	}
	if ihl := int(h[0]&0x0f) * 4; ihl < netpkt.IPv4MinHeaderLen || len(h) < ihl {
		return k, false
	}
	k.Src = netpkt.IPv4Addr(binary.BigEndian.Uint32(h[12:16]))
	k.Dst = netpkt.IPv4Addr(binary.BigEndian.Uint32(h[16:20]))
	k.Proto = netpkt.IPProto(h[9])
	switch k.Proto {
	case netpkt.IPProtoUDP, netpkt.IPProtoTCP:
		l4 := p.L4()
		if len(l4) < 4 {
			return k, false
		}
		k.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		k.DstPort = binary.BigEndian.Uint16(l4[2:4])
	}
	return k, true
}

func maskAddr(a netpkt.IPv4Addr, plen int) netpkt.IPv4Addr {
	if plen <= 0 {
		return 0
	}
	if plen >= 32 {
		return a
	}
	return a &^ netpkt.IPv4Addr(1<<(32-plen)-1)
}

// List is an ordered access-control list with first-match-wins semantics.
type List struct {
	Rules []Rule
	// DefaultAction applies when no rule matches.
	DefaultAction Action
}

// MatchLinear scans rules in priority order, testing each field of each
// rule as written; it returns the action and the index of the matching
// rule (-1 for the default). It is the reference the tree is checked
// against.
func (l *List) MatchLinear(k Key) (Action, int) {
	for i := range l.Rules {
		r := &l.Rules[i]
		if (r.ProtoAny || r.Proto == k.Proto) &&
			maskAddr(k.Src, r.SrcPlen) == maskAddr(r.SrcAddr, r.SrcPlen) &&
			maskAddr(k.Dst, r.DstPlen) == maskAddr(r.DstAddr, r.DstPlen) &&
			r.SrcPort.Lo <= k.SrcPort && k.SrcPort <= r.SrcPort.Hi &&
			r.DstPort.Lo <= k.DstPort && k.DstPort <= r.DstPort.Hi {
			return r.Action, i
		}
	}
	return l.DefaultAction, -1
}

// Len returns the number of rules.
func (l *List) Len() int { return len(l.Rules) }

// Fingerprint returns an FNV-1a hash over the rule set, used by element
// signatures so identical ACLs (not identically-named ones) compare equal.
func (l *List) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(l.DefaultAction))
	for _, r := range l.Rules {
		mix(uint64(r.SrcAddr)<<8 | uint64(r.SrcPlen))
		mix(uint64(r.DstAddr)<<8 | uint64(r.DstPlen))
		mix(uint64(r.SrcPort.Lo)<<32 | uint64(r.SrcPort.Hi))
		mix(uint64(r.DstPort.Lo)<<32 | uint64(r.DstPort.Hi))
		p := uint64(r.Proto)
		if r.ProtoAny {
			p |= 1 << 16
		}
		mix(p<<8 | uint64(r.Action))
	}
	return h
}
