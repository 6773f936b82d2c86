package nf

import (
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

// allNFs instantiates one of every NF constructor.
func allNFs() []*NF {
	var tr4 trie.IPv4Trie
	_ = tr4.Insert(0, 0, 1)
	var tr6 trie.IPv6Trie
	_ = tr6.Insert(netpkt.IPv6Addr{}, 0, 1)
	list := acl.Generate(50, 1)
	return []*NF{
		NewFirewall("fw", list, true),
		NewFirewall("fw-drop", list, false),
		NewIPv4Router("v4", trie.BuildDir24_8(&tr4), "c"),
		NewIPv6Router("v6", trie.BuildV6HashLPM(&tr6), "c6"),
		NewIPsecGateway("sec", 1, []byte("0123456789abcdef"), []byte("a")),
		NewIDS("ids", []string{"attack"}, false),
		NewStreamIDS("sids", []string{"attack"}, false),
		NewDPI("dpi", []string{"attack"}, []string{"[0-9]+"}),
		NewNAT("nat", 5),
		NewLoadBalancer("lb", 3),
		NewProbe("probe"),
		NewProxy("px", []byte("X")),
		NewWANOptimizer("wan"),
	}
}

// TestNFContract checks every NF builds a runnable fragment: entry/exit
// wired, every element named and typed, fragment processes traffic, and
// two Build calls produce independent instances.
func TestNFContract(t *testing.T) {
	for _, f := range allNFs() {
		if f.Name == "" || f.Kind == "" {
			t.Errorf("%+v: missing identity", f)
		}
		g := element.NewGraph()
		src := g.Add(element.NewFromDevice("src"))
		entry, exit := f.Build(g, "x")
		dst := g.Add(element.NewToDevice("dst"))
		g.MustConnect(src, 0, entry)
		g.MustConnect(exit, 0, dst)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: fragment invalid: %v", f.Name, err)
			continue
		}
		for i := 0; i < g.Len(); i++ {
			el := g.Node(element.NodeID(i))
			if el.Name() == "" || el.Traits().Kind == "" || el.Signature() == "" {
				t.Errorf("%s: element %d incomplete (%q/%q/%q)",
					f.Name, i, el.Name(), el.Traits().Kind, el.Signature())
			}
		}
		x, err := element.NewExecutor(g)
		if err != nil {
			t.Errorf("%s: %v", f.Name, err)
			continue
		}
		pkts := []*netpkt.Packet{
			netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2,
				SrcPort: 9, DstPort: 80, Payload: []byte("contract test"), FlowID: 1}),
			netpkt.BuildTCPv4(netpkt.TCPPacketSpec{SrcIP: 3, DstIP: 4,
				SrcPort: 9, DstPort: 80, Seq: 1, Payload: []byte("tcp"), FlowID: 2}),
		}
		if _, err := x.RunBatch(netpkt.NewBatch(0, pkts)); err != nil {
			t.Errorf("%s: RunBatch: %v", f.Name, err)
		}

		// Independence: two instances must not share counters.
		g2 := element.NewGraph()
		e2a, _ := f.Build(g2, "a")
		e2b, _ := f.Build(g2, "b")
		if g2.Node(e2a) == g2.Node(e2b) {
			t.Errorf("%s: Build returned shared element instances", f.Name)
		}
	}
}

// Every NF's profile must be consistent with its elements' traits: if any
// element writes headers/payload or drops, the profile must admit it
// (otherwise the orchestrator could parallelize unsafely).
func TestNFProfilesCoverElementTraits(t *testing.T) {
	for _, f := range allNFs() {
		g := element.NewGraph()
		entry, exit := f.Build(g, "p")
		_ = entry
		_ = exit
		var writesHdr, writesPl, addrm, drops bool
		for i := 0; i < g.Len(); i++ {
			tr := g.Node(element.NodeID(i)).Traits()
			writesHdr = writesHdr || tr.WritesHeader
			writesPl = writesPl || tr.WritesPayload
			addrm = addrm || tr.AddsRemovesBytes
			drops = drops || tr.CanDrop
		}
		p := f.Profile
		if writesHdr && !p.WritesHeader {
			t.Errorf("%s: elements write headers but profile denies it", f.Name)
		}
		if writesPl && !p.WritesPayload {
			t.Errorf("%s: elements write payload but profile denies it", f.Name)
		}
		if addrm && !p.AddRmBits {
			t.Errorf("%s: elements change length but profile denies it", f.Name)
		}
		// Drop coverage: the never-drop firewall legitimately maps
		// CanDrop=false onto its ACL element; CheckIPHeader's drop of
		// malformed packets is below the profile's abstraction, so only
		// flag NFs whose *non-check* elements drop without the profile
		// admitting it.
		if drops && !p.Drop {
			nonCheckDrop := false
			for i := 0; i < g.Len(); i++ {
				tr := g.Node(element.NodeID(i)).Traits()
				if tr.CanDrop && tr.Kind != "CheckIPHeader" &&
					tr.Kind != "IPLookup" && tr.Kind != "V6Lookup" &&
					tr.Kind != "DecTTL" && tr.Kind != "TCPReassembly" {
					nonCheckDrop = true
				}
			}
			if nonCheckDrop {
				t.Errorf("%s: elements drop but profile denies it", f.Name)
			}
		}
	}
}
