package element

import (
	"testing"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

// allStdElements instantiates one of every standard element.
func allStdElements() []Element {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	return []Element{
		NewFromDevice("fd"),
		NewToDevice("td"),
		NewCheckIPHeader("chk"),
		NewClassifier("cls", "sig", 2, func(*netpkt.Packet) int { return 0 }),
		NewIPLookup("rt", "sig", trie.BuildDir24_8(&tr)),
		NewDecTTL("ttl"),
		NewPaint("paint", 1),
		NewTee("tee", 2),
		NewCounter("cnt"),
		NewDiscard("dis"),
		NewEtherEncap("mac", netpkt.MAC{1}, netpkt.MAC{2}),
	}
}

// TestElementContract checks the invariants every element must satisfy:
// non-empty identity, a kind for the cost tables, output arity consistent
// with Process, safety on empty batches, and a working Reset.
func TestElementContract(t *testing.T) {
	for _, el := range allStdElements() {
		name := el.Name()
		if name == "" {
			t.Errorf("%T: empty Name", el)
		}
		if el.Signature() == "" {
			t.Errorf("%s: empty Signature", name)
		}
		tr := el.Traits()
		if tr.Kind == "" {
			t.Errorf("%s: empty Kind", name)
		}
		if el.NumOutputs() < 0 {
			t.Errorf("%s: negative outputs", name)
		}

		// Empty batch: must not panic, must honour arity.
		outs := el.Process(&netpkt.Batch{ID: 1})
		if el.NumOutputs() == 0 {
			if len(outs) != 0 {
				t.Errorf("%s: sink emitted %d outputs", name, len(outs))
			}
		} else if len(outs) != el.NumOutputs() {
			t.Errorf("%s: %d outputs, declared %d", name, len(outs), el.NumOutputs())
		}

		// Batch with one live packet: arity must hold, packet must not
		// be lost (it is either forwarded on some port or dropped).
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2})
		b := netpkt.NewBatch(2, []*netpkt.Packet{p})
		outs = el.Process(b)
		if el.NumOutputs() > 0 {
			seen := 0
			for _, ob := range outs {
				if ob == nil {
					continue
				}
				for _, q := range ob.Packets {
					if q == p || !q.Dropped {
						seen++
					}
				}
			}
			if seen == 0 && !p.Dropped {
				t.Errorf("%s: live packet vanished", name)
			}
		}

		if r, ok := el.(Resetter); ok {
			r.Reset() // must not panic
		}
	}
}

func TestGraphSetEdges(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	b := g.Add(NewCounter("b"))
	d := g.Add(NewToDevice("d"))
	g.MustConnect(a, 0, b)
	g.MustConnect(b, 0, d)
	// Rewire a directly to d.
	g.SetEdges([]Edge{{From: a, Port: 0, To: d}})
	if len(g.Edges()) != 1 {
		t.Fatalf("edges = %v", g.Edges())
	}
	if g.Edges()[0].To != d {
		t.Error("rewire failed")
	}
}

func TestMustConnectPanics(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	defer func() {
		if recover() == nil {
			t.Error("MustConnect did not panic on bad port")
		}
	}()
	g.MustConnect(a, 5, a)
}

func TestNewExecutorRejectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewCounter("a"))
	b := g.Add(NewCounter("b"))
	g.MustConnect(a, 0, b)
	g.MustConnect(b, 0, a)
	if _, err := NewExecutor(g); err == nil {
		t.Error("cycle accepted")
	}
}

func TestIPLookupMemAccesses(t *testing.T) {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	e := NewIPLookup("rt", "sig", trie.BuildDir24_8(&tr))
	p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2})
	e.Process(netpkt.NewBatch(0, []*netpkt.Packet{p}))
	if e.MemAccesses() == 0 {
		t.Error("no accesses counted")
	}
}
