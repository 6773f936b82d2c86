package nf

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"nfcompass/internal/ac"
	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/ipsec"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/redfa"
	"nfcompass/internal/trie"
)

// ACLFilter classifies packets against an access-control list, through a
// HiCuts decision tree, and drops denied packets. When NeverDrop is set the
// classification still runs (costing the same work) but denied packets pass
// — the configuration the paper uses to measure pure throughput ("the rules
// of firewall are modified to never drop packets").
type ACLFilter struct {
	name      string
	tree      *acl.Tree
	sig       string
	NeverDrop bool
	Denied    uint64
	// CostAccum sums classification lookup costs, feeding the simulator's
	// per-packet classification cost.
	CostAccum uint64
	canDrop   bool
}

// NewACLFilterTree builds the element over an already-built classification
// tree, letting replicated firewall instances share one (read-only)
// tree instead of rebuilding it per instance.
func NewACLFilterTree(name, sig string, tree *acl.Tree, neverDrop bool) *ACLFilter {
	return &ACLFilter{
		name: name, sig: sig,
		tree:      tree,
		NeverDrop: neverDrop,
		canDrop:   !neverDrop,
	}
}

// Name implements element.Element.
func (e *ACLFilter) Name() string { return e.name }

// Traits implements element.Element.
func (e *ACLFilter) Traits() element.Traits {
	return element.Traits{
		Kind: "ACL", Class: element.ClassClassifier,
		ReadsHeader: true, CanDrop: e.canDrop, Offloadable: true,
	}
}

// NumOutputs implements element.Element.
func (e *ACLFilter) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *ACLFilter) Signature() string { return "ACL/" + e.sig }

// Process implements element.Element.
func (e *ACLFilter) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		k, ok := acl.KeyFromPacket(p)
		if !ok {
			p.Drop(e.name)
			continue
		}
		action, _, cost := e.tree.Match(k)
		e.CostAccum += uint64(cost)
		if action == acl.Deny {
			e.Denied++
			if !e.NeverDrop {
				p.Drop(e.name)
			}
		}
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *ACLFilter) Reset() { e.Denied, e.CostAccum = 0, 0 }

// TreeStats exposes the classification-tree size (nodes, leaves, depth),
// the quantity that blows up with large ACLs in Fig. 17.
func (e *ACLFilter) TreeStats() (nodes, leaves, depth int) {
	return e.tree.Nodes(), e.tree.Leaves(), e.tree.MaxDepth()
}

// scanStage is a matcher element's reusable staging for the batch kernel:
// the packets to scan, their payloads, and a match count slot for each.
type scanStage struct {
	pkts     []*netpkt.Packet
	payloads [][]byte
	matches  []int
}

// add stages one packet's payload.
func (st *scanStage) add(p *netpkt.Packet, payload []byte) {
	st.pkts = append(st.pkts, p)
	st.payloads = append(st.payloads, payload)
	st.matches = append(st.matches, 0)
}

// reset empties the stage, keeping its capacity but not the packets: a
// sealed packet's buffer must not stay reachable from here after release.
func (st *scanStage) reset() {
	clear(st.pkts)
	clear(st.payloads)
	st.pkts, st.payloads, st.matches = st.pkts[:0], st.payloads[:0], st.matches[:0]
}

// AhoCorasickMatch scans payloads against a multi-pattern set (the IDS /
// DPI string-matching stage). Matched packets are dropped when DropOnMatch
// is set (IDS inline mode) or counted otherwise. The batch's live payloads
// go through the automaton together (ac.Matcher.ScanStatsBatch).
type AhoCorasickMatch struct {
	name        string
	m           *ac.Matcher
	sig         string
	DropOnMatch bool
	Alerts      uint64
	// DeepStates accumulates automaton states visited off the root — the
	// DFA memory-pressure statistic distinguishing full-match from
	// no-match traffic (Fig. 8d/e).
	DeepStates uint64
	ScannedB   uint64
	stage      scanStage
}

// NewAhoCorasickMatch builds the matcher element. sig must fingerprint the
// pattern set.
func NewAhoCorasickMatch(name, sig string, m *ac.Matcher, dropOnMatch bool) *AhoCorasickMatch {
	return &AhoCorasickMatch{name: name, m: m, sig: sig, DropOnMatch: dropOnMatch}
}

// Name implements element.Element.
func (e *AhoCorasickMatch) Name() string { return e.name }

// Traits implements element.Element. The matcher keeps statistics
// counters and no per-flow state: each packet's verdict depends on its own
// payload alone.
func (e *AhoCorasickMatch) Traits() element.Traits {
	return element.Traits{
		Kind: "AhoCorasick", Class: element.ClassClassifier,
		ReadsHeader: true, ReadsPayload: true, CanDrop: e.DropOnMatch,
		Offloadable: true,
	}
}

// NumOutputs implements element.Element.
func (e *AhoCorasickMatch) NumOutputs() int { return 1 }

// Signature implements element.Element: the pattern set and the drop mode,
// so an alert-only and a drop-on-match matcher never stand in for each
// other.
func (e *AhoCorasickMatch) Signature() string {
	if e.DropOnMatch {
		return "AhoCorasick/" + e.sig + "/drop"
	}
	return "AhoCorasick/" + e.sig
}

// Process implements element.Element.
func (e *AhoCorasickMatch) Process(b *netpkt.Batch) []*netpkt.Batch {
	return []*netpkt.Batch{e.ProcessSingle(b)}
}

// ProcessSingle implements element.SingleOut.
func (e *AhoCorasickMatch) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	st := &e.stage
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		if pl := p.Payload(); pl != nil {
			st.add(p, pl)
		}
	}
	e.DeepStates += uint64(e.m.ScanStatsBatch(st.payloads, st.matches))
	for i, p := range st.pkts {
		e.ScannedB += uint64(len(st.payloads[i]))
		if st.matches[i] > 0 {
			e.Alerts++
			if e.DropOnMatch {
				p.Drop(e.name)
			}
		}
	}
	st.reset()
	return b
}

// Reset implements element.Resetter.
func (e *AhoCorasickMatch) Reset() { e.Alerts, e.DeepStates, e.ScannedB = 0, 0, 0 }

// RegexMatch scans payloads against a DFA regex set (the DPI regular
// expression stage).
type RegexMatch struct {
	name    string
	set     *redfa.Set
	sig     string
	Matches uint64
}

// NewRegexMatch builds the regex element. sig must fingerprint the set.
func NewRegexMatch(name, sig string, set *redfa.Set) *RegexMatch {
	return &RegexMatch{name: name, set: set, sig: sig}
}

// Name implements element.Element.
func (e *RegexMatch) Name() string { return e.name }

// Traits implements element.Element.
func (e *RegexMatch) Traits() element.Traits {
	return element.Traits{
		Kind: "RegexDFA", Class: element.ClassClassifier,
		ReadsHeader: true, ReadsPayload: true, Offloadable: true,
	}
}

// NumOutputs implements element.Element.
func (e *RegexMatch) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *RegexMatch) Signature() string { return "RegexDFA/" + e.sig }

// Process implements element.Element.
func (e *RegexMatch) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		if pl := p.Payload(); pl != nil {
			e.Matches += uint64(e.set.MatchCount(pl))
		}
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *RegexMatch) Reset() { e.Matches = 0 }

// IPsecSeal applies ESP encapsulation to the L4 payload-and-beyond region:
// the packet grows by the ESP overhead and its payload is replaced with
// ciphertext. (Tunnel-mode framing of the outer headers is kept simple —
// the original IP header is updated in place with the new total length and
// ESP protocol.)
type IPsecSeal struct {
	name   string
	sa     *ipsec.SA
	seq0   uint32 // the SA's sequence counter when the element was built
	Sealed uint64
	Errors uint64
}

// NewIPsecSeal builds the encryption element over a security association.
func NewIPsecSeal(name string, sa *ipsec.SA) *IPsecSeal {
	return &IPsecSeal{name: name, sa: sa, seq0: sa.Seq()}
}

// Name implements element.Element.
func (e *IPsecSeal) Name() string { return e.name }

// Traits implements element.Element.
func (e *IPsecSeal) Traits() element.Traits {
	return element.Traits{
		Kind: "IPsecSeal", Class: element.ClassModifier,
		ReadsHeader: true, ReadsPayload: true,
		WritesHeader: true, WritesPayload: true, AddsRemovesBytes: true,
		Offloadable: true, PreservesHeaderValidity: true,
	}
}

// NumOutputs implements element.Element.
func (e *IPsecSeal) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *IPsecSeal) Signature() string { return fmt.Sprintf("IPsecSeal/%#x", e.sa.SPI) }

// Process implements element.Element.
func (e *IPsecSeal) Process(b *netpkt.Batch) []*netpkt.Batch {
	return []*netpkt.Batch{e.ProcessSingle(b)}
}

// ProcessSingle implements element.SingleOut.
func (e *IPsecSeal) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L4Offset < 0 {
			continue
		}
		// The ESP payload is sealed in the packet's own buffer, grown by
		// the overhead (in place when it has the room).
		end := len(p.Data)
		p.Grow(ipsec.Overhead())
		if err := e.sa.Seal(p.Data[p.L4Offset:]); err != nil {
			p.Data = p.Data[:end]
			e.Errors++
			p.Drop(e.name)
			continue
		}
		// Fix the IP header: protocol = ESP, total length, checksum over
		// the whole header, options included.
		h := p.Data[p.L3Offset:p.L4Offset]
		h[9] = byte(netpkt.IPProtoESP)
		binary.BigEndian.PutUint16(h[2:4], uint16(len(p.Data)-p.L3Offset))
		h[10], h[11] = 0, 0
		binary.BigEndian.PutUint16(h[10:12], netpkt.Checksum(h))
		p.L4Proto = netpkt.IPProtoESP
		e.Sealed++
	}
	return b
}

// Reset implements element.Resetter. The SA's sequence counter goes back to
// where the element was built with it: sequence numbers are ciphertext, and
// ciphertext is what a downstream scanner prices, so a run after Reset must
// seal the bytes the first run sealed (evaluation passes are hermetic).
func (e *IPsecSeal) Reset() {
	e.Sealed, e.Errors = 0, 0
	e.sa.SetSeq(e.seq0)
}

// NATRewrite performs source NAT: it rewrites the source address (and
// port for TCP/UDP) to a public address, allocating per-flow port mappings
// and fixing all checksums incrementally.
type NATRewrite struct {
	name     string
	public   netpkt.IPv4Addr
	nextPort uint16
	// flows bounds the port-mapping state: under flow churn the oldest
	// mappings are evicted (their ports may be reused), as a real NAT's
	// mapping timeout would do.
	flows *flowtable.Table[uint16]
	// portInUse has one bit per port, set while a mapping holds it and
	// cleared by the table's OnEvict. The allocator walks the range in
	// order and wraps; without the bits a flow kept hot through a full turn
	// would share its translated 5-tuple with the newcomer.
	portInUse [(1 << 16) / 64]uint64
	Rewritten uint64
}

// natFlowCapacity bounds NAT port mappings (one public address exposes at
// most ~45k dynamic ports). It stays below the natFirstPort..65535 range,
// so the allocator always finds a free port.
const (
	natFlowCapacity = 45000
	natFirstPort    = 20000
)

// NewNATRewrite builds the NAT element with the given public address.
func NewNATRewrite(name string, public netpkt.IPv4Addr) *NATRewrite {
	e := &NATRewrite{
		name: name, public: public, nextPort: natFirstPort,
		flows: flowtable.New[uint16](natFlowCapacity),
	}
	e.flows.OnEvict = func(_ uint64, port uint16) {
		e.portInUse[port>>6] &^= 1 << (port & 63)
	}
	return e
}

// allocPort hands out the next port no live mapping holds: the first clear
// bit of portInUse at or after nextPort, wrapping from 65535 to
// natFirstPort, found a 64-port word at a time.
func (e *NATRewrite) allocPort() uint16 {
	p := int(e.nextPort)
	for {
		w := p >> 6
		// The ports below p in its word count as held: in the first word
		// they precede nextPort, after the wrap they precede natFirstPort.
		if free := ^e.portInUse[w] &^ (1<<(p&63) - 1); free != 0 {
			port := w<<6 | bits.TrailingZeros64(free)
			e.portInUse[w] |= 1 << (port & 63)
			e.nextPort = uint16(port + 1)
			if e.nextPort == 0 {
				e.nextPort = natFirstPort
			}
			return uint16(port)
		}
		if p = (w + 1) << 6; p == 1<<16 {
			p = natFirstPort
		}
	}
}

// Name implements element.Element.
func (e *NATRewrite) Name() string { return e.name }

// Traits implements element.Element.
func (e *NATRewrite) Traits() element.Traits {
	return element.Traits{
		Kind: "NATRewrite", Class: element.ClassModifier,
		ReadsHeader: true, WritesHeader: true, Stateful: true, Offloadable: true,
		PreservesHeaderValidity: true,
	}
}

// NumOutputs implements element.Element.
func (e *NATRewrite) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *NATRewrite) Signature() string { return fmt.Sprintf("NATRewrite/%v", e.public) }

// Process implements element.Element.
func (e *NATRewrite) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv4 || p.L4Offset < 0 {
			continue
		}
		h := p.Data[p.L3Offset:]
		oldSrc := netpkt.IPv4FromBytes(h[12:16])
		// Rewrite the source address.
		e.public.PutBytes(h[12:16])
		oldSum := binary.BigEndian.Uint16(h[10:12])
		newSum := netpkt.ChecksumUpdate32(oldSum, uint32(oldSrc), uint32(e.public))
		binary.BigEndian.PutUint16(h[10:12], newSum)

		// Rewrite the source port for TCP/UDP and fix the L4 checksum
		// (which covers the pseudo-header).
		l4 := p.Data[p.L4Offset:]
		switch p.L4Proto {
		case netpkt.IPProtoUDP, netpkt.IPProtoTCP:
			if len(l4) < 8 {
				break
			}
			port, ok := e.flows.Get(p.FlowID)
			if !ok {
				port = e.allocPort()
				e.flows.Put(p.FlowID, port)
			}
			oldPort := binary.BigEndian.Uint16(l4[0:2])
			binary.BigEndian.PutUint16(l4[0:2], port)

			csumOff := 6 // UDP
			if p.L4Proto == netpkt.IPProtoTCP {
				csumOff = 16
				if len(l4) < 18 {
					break
				}
			}
			c := binary.BigEndian.Uint16(l4[csumOff : csumOff+2])
			if c != 0 { // UDP checksum 0 = disabled
				c = netpkt.ChecksumUpdate32(c, uint32(oldSrc), uint32(e.public))
				c = netpkt.ChecksumUpdate16(c, oldPort, port)
				binary.BigEndian.PutUint16(l4[csumOff:csumOff+2], c)
			}
		}
		e.Rewritten++
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *NATRewrite) Reset() {
	e.Rewritten = 0
	e.flows.Reset()
	clear(e.portInUse[:])
	e.nextPort = natFirstPort
}

// LoadBalance assigns each flow to one of n backends by consistent flow
// hashing, recording the choice in the paint annotation.
type LoadBalance struct {
	name       string
	backends   int
	PerBackend []uint64
}

// NewLoadBalance builds the LB element with n backends.
func NewLoadBalance(name string, backends int) *LoadBalance {
	return &LoadBalance{name: name, backends: backends, PerBackend: make([]uint64, backends)}
}

// Name implements element.Element.
func (e *LoadBalance) Name() string { return e.name }

// Traits implements element.Element.
func (e *LoadBalance) Traits() element.Traits {
	// LB reads the header and annotates; it does not modify packet bytes.
	return element.Traits{Kind: "LBHash", Class: element.ClassClassifier,
		ReadsHeader: true, Offloadable: true}
}

// NumOutputs implements element.Element.
func (e *LoadBalance) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *LoadBalance) Signature() string { return fmt.Sprintf("LBHash/%d", e.backends) }

// Process implements element.Element.
func (e *LoadBalance) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		h := fnv64(p.FlowID)
		backend := int(h % uint64(e.backends))
		p.Paint = byte(backend)
		e.PerBackend[backend]++
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *LoadBalance) Reset() { e.PerBackend = make([]uint64, e.backends) }

func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// V6Lookup performs IPv6 longest-prefix match via the binary-search-on-
// prefix-lengths hash scheme, annotating the next hop.
type V6Lookup struct {
	name    string
	table   *trie.V6HashLPM
	sig     string
	NoRoute uint64
	// ProbesAccum sums hash probes, the IPv6 memory-access cost metric.
	ProbesAccum uint64
}

// NewV6Lookup builds the IPv6 LPM element. sig fingerprints the table.
func NewV6Lookup(name, sig string, table *trie.V6HashLPM) *V6Lookup {
	return &V6Lookup{name: name, table: table, sig: sig}
}

// Name implements element.Element.
func (e *V6Lookup) Name() string { return e.name }

// Traits implements element.Element.
func (e *V6Lookup) Traits() element.Traits {
	return element.Traits{
		Kind: "V6Lookup", Class: element.ClassClassifier,
		ReadsHeader: true, CanDrop: true, Offloadable: true,
	}
}

// NumOutputs implements element.Element.
func (e *V6Lookup) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *V6Lookup) Signature() string { return "V6Lookup/" + e.sig }

// Process implements element.Element.
func (e *V6Lookup) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L3Proto != netpkt.ProtoIPv6 || p.L3Offset < 0 {
			continue
		}
		dst := netpkt.IPv6FromBytes(p.Data[p.L3Offset+24 : p.L3Offset+40])
		hop := e.table.Lookup(dst)
		e.ProbesAccum += uint64(e.table.LastProbes())
		if hop == 0 {
			p.Drop(e.name)
			e.NoRoute++
			continue
		}
		p.UserAnno[0] = byte(hop)
		p.UserAnno[1] = byte(hop >> 8)
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *V6Lookup) Reset() { e.NoRoute, e.ProbesAccum = 0, 0 }

// PayloadRewrite models the proxy NF's payload modification: it overwrites
// a token at the start of the payload (e.g. header injection) without
// changing the packet length.
type PayloadRewrite struct {
	name  string
	token []byte
	Count uint64
}

// NewPayloadRewrite builds the proxy rewrite element.
func NewPayloadRewrite(name string, token []byte) *PayloadRewrite {
	return &PayloadRewrite{name: name, token: token}
}

// Name implements element.Element.
func (e *PayloadRewrite) Name() string { return e.name }

// Traits implements element.Element.
func (e *PayloadRewrite) Traits() element.Traits {
	return element.Traits{
		Kind: "PayloadRewrite", Class: element.ClassModifier,
		ReadsHeader: true, ReadsPayload: true, WritesPayload: true,
		Offloadable: true, Stateful: true,
	}
}

// NumOutputs implements element.Element.
func (e *PayloadRewrite) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *PayloadRewrite) Signature() string { return fmt.Sprintf("PayloadRewrite/%x", e.token) }

// Process implements element.Element.
func (e *PayloadRewrite) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		pl := p.Payload()
		if pl == nil || len(pl) == 0 {
			continue
		}
		n := copy(pl, e.token)
		_ = n
		e.Count++
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *PayloadRewrite) Reset() { e.Count = 0 }

// WANCompress models the WAN optimizer: run-length compression of the
// payload (shrinking the packet) and redundancy elimination (dropping
// packets whose payload was already seen on the flow).
type WANCompress struct {
	name       string
	seen       map[uint64]struct{}
	Compressed uint64
	Deduped    uint64
	SavedBytes uint64
}

// NewWANCompress builds the WAN optimization element.
func NewWANCompress(name string) *WANCompress {
	return &WANCompress{name: name, seen: make(map[uint64]struct{})}
}

// Name implements element.Element.
func (e *WANCompress) Name() string { return e.name }

// Traits implements element.Element.
func (e *WANCompress) Traits() element.Traits {
	return element.Traits{
		Kind: "WANCompress", Class: element.ClassModifier,
		ReadsHeader: true, ReadsPayload: true,
		WritesHeader: true, WritesPayload: true,
		AddsRemovesBytes: true, CanDrop: true, Stateful: true,
		PreservesHeaderValidity: true,
	}
}

// NumOutputs implements element.Element.
func (e *WANCompress) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *WANCompress) Signature() string { return "WANCompress" }

// Process implements element.Element.
func (e *WANCompress) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped || p.L4Offset < 0 {
			continue
		}
		pl := p.Payload()
		if len(pl) == 0 {
			continue
		}
		// Redundancy elimination: hash(flow, payload).
		h := fnv64(p.FlowID)
		for _, c := range pl {
			h ^= uint64(c)
			h *= 1099511628211
		}
		if _, dup := e.seen[h]; dup {
			e.Deduped++
			p.Drop(e.name)
			continue
		}
		e.seen[h] = struct{}{}

		// Run-length encode the payload in place when it helps.
		rle := rleEncode(pl)
		if len(rle) < len(pl) {
			plOff := len(p.Data) - len(pl)
			copy(p.Data[plOff:], rle)
			e.SavedBytes += uint64(len(pl) - len(rle))
			p.Data = p.Data[:plOff+len(rle)]
			// Fix IPv4 total length + checksum (over the whole header,
			// options included) if applicable.
			if p.L3Proto == netpkt.ProtoIPv4 && p.L3Offset >= 0 {
				hdr := p.Data[p.L3Offset:p.L4Offset]
				binary.BigEndian.PutUint16(hdr[2:4], uint16(len(p.Data)-p.L3Offset))
				hdr[10], hdr[11] = 0, 0
				binary.BigEndian.PutUint16(hdr[10:12], netpkt.Checksum(hdr))
			}
			e.Compressed++
		}
	}
	return []*netpkt.Batch{b}
}

// Reset implements element.Resetter.
func (e *WANCompress) Reset() {
	e.seen = make(map[uint64]struct{})
	e.Compressed, e.Deduped, e.SavedBytes = 0, 0, 0
}

// rleEncode is a byte-level run-length encoding: (count, byte) pairs.
func rleEncode(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j] == in[i] && j-i < 255 {
			j++
		}
		out = append(out, byte(j-i), in[i])
		i = j
	}
	return out
}

// MemAccesses reports the cumulative exact classification-tree probes
// (hetsim.MemProber).
func (e *ACLFilter) MemAccesses() uint64 { return e.CostAccum }

// MemAccesses reports the cumulative DFA states visited off the root
// (hetsim.MemProber) — the statistic separating full-match from no-match
// traffic.
func (e *AhoCorasickMatch) MemAccesses() uint64 { return e.DeepStates }

// MemAccesses reports the cumulative LPM hash probes (hetsim.MemProber).
func (e *V6Lookup) MemAccesses() uint64 { return e.ProbesAccum }

// FootprintBytes reports the classification tree's modelled working-set
// size (hetsim.Footprinter): tree nodes plus leaf rule buckets.
func (e *ACLFilter) FootprintBytes() float64 {
	nodes, leaves, _ := e.TreeStats()
	return float64(nodes)*64 + float64(leaves)*8*8 // nodes + leaf rule buckets
}

// FootprintBytes reports the modelled DFA table size (hetsim.Footprinter):
// the GPU-style table hetsim charges, 256 int32 entries per state plus
// outputs, not the class-compressed table this process walks.
func (e *AhoCorasickMatch) FootprintBytes() float64 {
	return float64(e.m.NumStates()) * (256*4 + 16)
}

// FootprintBytes reports the regex DFA bank's table size
// (hetsim.Footprinter).
func (e *RegexMatch) FootprintBytes() float64 {
	return float64(e.set.TotalStates()) * (256*4 + 1)
}
