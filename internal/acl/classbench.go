package acl

import (
	"math/rand"

	"nfcompass/internal/netpkt"
)

// The generator mirrors the skew of real ClassBench ACL seeds: mostly
// /16.../32 source/destination prefixes, a quarter of rules with port
// ranges, TCP/UDP/any protocol mix.
const (
	// denyFraction is the fraction of rules with action Deny.
	denyFraction = 0.3
	// wildcardBias is the chance that a rule's prefix is short
	// (wildcard-ish), which inflates classification-tree size — the effect
	// behind the Fig. 17 ACL-10000 blowup.
	wildcardBias = 0.25
)

// Generate produces a deterministic synthetic ACL of the given number of
// rules.
func Generate(rules int, seed int64) *List {
	return generate(rules, seed, denyFraction, wildcardBias)
}

// generate is Generate with the deny fraction and the wildcard bias (in
// [0,1]) as arguments, so tests can vary the rule distribution.
func generate(rules int, seed int64, deny, wildcard float64) *List {
	rng := rand.New(rand.NewSource(seed))
	l := &List{DefaultAction: Permit, Rules: make([]Rule, 0, rules)}

	// A small fixed pool of "site" prefixes makes rules overlap the way
	// real ACLs do (many rules refine the same address blocks); keeping the
	// pool size constant means overlap density — and classification
	// difficulty — grows with the rule count.
	nSites := 16
	sites := make([]netpkt.IPv4Addr, nSites)
	for i := range sites {
		sites[i] = netpkt.IPv4Addr(rng.Uint32()) &^ 0xffff // /16 blocks
	}

	plenChoices := []int{16, 20, 24, 24, 28, 32, 32}
	portChoices := []PortRange{
		AnyPort, {80, 80}, {443, 443}, {53, 53}, {1024, 65535},
		{8000, 8999}, {22, 22}, {5000, 5100},
	}

	for i := 0; i < rules; i++ {
		var r Rule
		r.SrcAddr = sites[rng.Intn(nSites)] | netpkt.IPv4Addr(rng.Uint32()&0xffff)
		r.DstAddr = sites[rng.Intn(nSites)] | netpkt.IPv4Addr(rng.Uint32()&0xffff)
		r.SrcPlen = plenChoices[rng.Intn(len(plenChoices))]
		r.DstPlen = plenChoices[rng.Intn(len(plenChoices))]
		if rng.Float64() < wildcard {
			r.SrcPlen = rng.Intn(9) // 0..8: near-wildcard
		}
		if rng.Float64() < wildcard {
			r.DstPlen = rng.Intn(9)
		}
		r.SrcAddr = maskAddr(r.SrcAddr, r.SrcPlen)
		r.DstAddr = maskAddr(r.DstAddr, r.DstPlen)
		r.SrcPort = portChoices[rng.Intn(len(portChoices))]
		r.DstPort = portChoices[rng.Intn(len(portChoices))]
		switch rng.Intn(4) {
		case 0:
			r.Proto, r.ProtoAny = netpkt.IPProtoTCP, false
		case 1:
			r.Proto, r.ProtoAny = netpkt.IPProtoUDP, false
		default:
			r.ProtoAny = true
		}
		if rng.Float64() < deny {
			r.Action = Deny
		}
		l.Rules = append(l.Rules, r)
	}
	return l
}

// RandomMatchingKey returns a key guaranteed to match rule i of the list,
// useful for generating traffic that exercises the whole ACL.
func RandomMatchingKey(rng *rand.Rand, r *Rule) Key {
	var k Key
	k.Src = r.SrcAddr | netpkt.IPv4Addr(rng.Uint32())&hostMask(r.SrcPlen)
	k.Dst = r.DstAddr | netpkt.IPv4Addr(rng.Uint32())&hostMask(r.DstPlen)
	k.SrcPort = portIn(rng, r.SrcPort)
	k.DstPort = portIn(rng, r.DstPort)
	if r.ProtoAny {
		if rng.Intn(2) == 0 {
			k.Proto = netpkt.IPProtoTCP
		} else {
			k.Proto = netpkt.IPProtoUDP
		}
	} else {
		k.Proto = r.Proto
	}
	return k
}

func hostMask(plen int) netpkt.IPv4Addr {
	if plen >= 32 {
		return 0
	}
	if plen <= 0 {
		return ^netpkt.IPv4Addr(0)
	}
	return netpkt.IPv4Addr(1<<(32-plen) - 1)
}

func portIn(rng *rand.Rand, r PortRange) uint16 {
	span := int(r.Hi) - int(r.Lo) + 1
	return r.Lo + uint16(rng.Intn(span))
}
