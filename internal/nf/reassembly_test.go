package nf

import (
	"testing"

	"nfcompass/internal/ac"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

// tcpSeg builds a TCP segment with the given seq and payload on a flow.
func tcpSeg(flow uint64, seq uint32, payload string) *netpkt.Packet {
	return netpkt.BuildTCPv4(netpkt.TCPPacketSpec{
		SrcIP: netpkt.IPv4Addr(10 + flow), DstIP: 20,
		SrcPort: 1000, DstPort: 80,
		Seq: seq, Flags: netpkt.TCPAck,
		Payload: []byte(payload), FlowID: flow,
	})
}

// runReasm pushes packets through a fresh reassembler in one batch and
// returns the live output payloads in order.
func runReasm(e *TCPReassembly, pkts ...*netpkt.Packet) []string {
	out := e.Process(netpkt.NewBatch(0, pkts))[0]
	var payloads []string
	for _, p := range out.Packets {
		if !p.Dropped {
			payloads = append(payloads, string(p.Payload()))
		}
	}
	return payloads
}

func TestReassemblyInOrderPassthrough(t *testing.T) {
	e := NewTCPReassembly("asm")
	got := runReasm(e, tcpSeg(1, 100, "aaa"), tcpSeg(1, 103, "bbb"), tcpSeg(1, 106, "ccc"))
	want := []string{"aaa", "bbb", "ccc"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Buffered != 0 {
		t.Errorf("Buffered = %d for in-order stream", e.Buffered)
	}
}

func TestReassemblyReordersSegments(t *testing.T) {
	e := NewTCPReassembly("asm")
	// Deliver 3rd, 2nd, then 1st segment.
	got := runReasm(e, tcpSeg(1, 106, "ccc"), tcpSeg(1, 103, "bbb"))
	// Wait: the very first segment seen (seq 106) starts the flow, so it
	// passes; 103 is "before" the expected 109 -> treated as retransmit.
	// Start flows explicitly instead: first segment defines the base.
	_ = got

	e2 := NewTCPReassembly("asm2")
	// First segment 100 establishes the stream; then out-of-order.
	out1 := runReasm(e2, tcpSeg(2, 100, "aaa"))
	if len(out1) != 1 || out1[0] != "aaa" {
		t.Fatalf("first segment: %v", out1)
	}
	out2 := runReasm(e2, tcpSeg(2, 106, "ccc")) // gap: held
	if len(out2) != 0 {
		t.Fatalf("out-of-order segment leaked: %v", out2)
	}
	if e2.Buffered != 1 || e2.HeldBytes != 3 {
		t.Errorf("Buffered=%d HeldBytes=%d", e2.Buffered, e2.HeldBytes)
	}
	out3 := runReasm(e2, tcpSeg(2, 103, "bbb")) // fills the gap
	if len(out3) != 2 || out3[0] != "bbb" || out3[1] != "ccc" {
		t.Fatalf("gap fill: %v", out3)
	}
	if e2.Released != 1 || e2.HeldBytes != 0 {
		t.Errorf("Released=%d HeldBytes=%d", e2.Released, e2.HeldBytes)
	}
}

func TestReassemblyDropsRetransmissions(t *testing.T) {
	e := NewTCPReassembly("asm")
	runReasm(e, tcpSeg(1, 100, "aaa"))
	p := tcpSeg(1, 100, "aaa")
	e.Process(netpkt.NewBatch(1, []*netpkt.Packet{p}))
	if !p.Dropped {
		t.Error("retransmission not dropped")
	}
}

func TestReassemblyOverflowBound(t *testing.T) {
	e := NewTCPReassembly("asm")
	e.MaxBuffered = 2
	runReasm(e, tcpSeg(1, 100, "a")) // establishes nextSeq=101
	// Three disjoint future segments; the third must overflow.
	runReasm(e, tcpSeg(1, 110, "x"))
	runReasm(e, tcpSeg(1, 120, "y"))
	p := tcpSeg(1, 130, "z")
	e.Process(netpkt.NewBatch(9, []*netpkt.Packet{p}))
	if !p.Dropped || e.Overflows != 1 {
		t.Errorf("overflow not enforced: dropped=%v overflows=%d", p.Dropped, e.Overflows)
	}
}

func TestReassemblyFlowsIndependent(t *testing.T) {
	e := NewTCPReassembly("asm")
	got := runReasm(e,
		tcpSeg(1, 100, "f1-a"), tcpSeg(2, 500, "f2-a"),
		tcpSeg(2, 504, "f2-b"), tcpSeg(1, 104, "f1-b"))
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	if e.flows.Len() != 2 {
		t.Errorf("FlowsTracked = %d", e.flows.Len())
	}
}

func TestReassemblyNonTCPPassthrough(t *testing.T) {
	e := NewTCPReassembly("asm")
	udp := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, Payload: []byte("u")})
	out := e.Process(netpkt.NewBatch(0, []*netpkt.Packet{udp}))[0]
	if out.Live() != 1 {
		t.Error("UDP packet held by TCP reassembler")
	}
}

// The decisive stateful-processing test: a signature split across two
// segments is caught by the stream IDS and missed by the stateless one.
func TestStreamIDSCatchesSplitSignature(t *testing.T) {
	patterns := []string{"attackvector"}

	mkSegs := func() []*netpkt.Packet {
		return []*netpkt.Packet{
			tcpSeg(7, 100, "launch the atta"),
			tcpSeg(7, 115, "ckvector now"),
		}
	}

	// Stateless per-packet IDS: no single packet contains the pattern.
	stateless := NewIDS("ids", patterns, true)
	g1 := element.NewGraph()
	src1 := g1.Add(element.NewFromDevice("src"))
	e1, x1 := stateless.Build(g1, "s")
	dst1 := g1.Add(element.NewToDevice("dst"))
	g1.MustConnect(src1, 0, e1)
	g1.MustConnect(x1, 0, dst1)
	ex1, _ := element.NewExecutor(g1)
	o1, err := ex1.RunBatch(netpkt.NewBatch(0, mkSegs()))
	if err != nil {
		t.Fatal(err)
	}
	if o1[dst1][0].Live() != 2 {
		t.Fatal("stateless IDS should miss the split signature (sanity)")
	}

	// Stream IDS: reassembly + resumable automaton catches it.
	stream := NewStreamIDS("sids", patterns, true)
	g2 := element.NewGraph()
	src2 := g2.Add(element.NewFromDevice("src"))
	e2, x2 := stream.Build(g2, "st")
	dst2 := g2.Add(element.NewToDevice("dst"))
	g2.MustConnect(src2, 0, e2)
	g2.MustConnect(x2, 0, dst2)
	ex2, _ := element.NewExecutor(g2)
	o2, err := ex2.RunBatch(netpkt.NewBatch(0, mkSegs()))
	if err != nil {
		t.Fatal(err)
	}
	live := o2[dst2][0].Live()
	if live != 1 {
		t.Fatalf("stream IDS: %d live packets, want 1 (second segment dropped)", live)
	}
}

func TestStreamIDSTaintsFlow(t *testing.T) {
	m, _ := ac.NewMatcherStrings([]string{"bad"})
	e := NewStreamAhoCorasick("sac", "t", m, true)
	segs := []*netpkt.Packet{
		tcpSeg(3, 100, "this is bad data"),
		tcpSeg(3, 116, "totally innocent"),
		tcpSeg(4, 100, "clean other flow"),
	}
	e.Process(netpkt.NewBatch(0, segs))
	if !segs[0].Dropped {
		t.Error("matching segment not dropped")
	}
	if !segs[1].Dropped {
		t.Error("later segment of tainted flow not dropped")
	}
	if segs[2].Dropped {
		t.Error("independent flow dropped")
	}
	if e.Alerts != 1 {
		t.Errorf("Alerts = %d", e.Alerts)
	}
}

func TestStreamACResetClearsState(t *testing.T) {
	m, _ := ac.NewMatcherStrings([]string{"xy"})
	e := NewStreamAhoCorasick("sac", "t", m, false)
	e.Process(netpkt.NewBatch(0, []*netpkt.Packet{tcpSeg(1, 100, "x")}))
	e.Reset()
	// After reset the flow state is gone: "y" alone must not complete
	// the pattern.
	e.Process(netpkt.NewBatch(1, []*netpkt.Packet{tcpSeg(1, 101, "y")}))
	if e.Alerts != 0 {
		t.Errorf("Alerts = %d after reset", e.Alerts)
	}
}

func TestScanFromEquivalentToScan(t *testing.T) {
	m, _ := ac.NewMatcherStrings([]string{"hello", "world"})
	data := []byte("say hello to the world, helloworld")
	wantMatches := len(m.Scan(data))
	// Split at every position: total matches across the two halves must
	// equal the single-pass count when state is carried over.
	for cut := 0; cut <= len(data); cut++ {
		st, m1, _ := m.ScanFrom(ac.StartState, data[:cut])
		_, m2, _ := m.ScanFrom(st, data[cut:])
		if m1+m2 != wantMatches {
			t.Fatalf("cut %d: %d+%d != %d", cut, m1, m2, wantMatches)
		}
	}
}

// Flow-state bounds: massive flow churn must evict rather than grow.
func TestReassemblyFlowEviction(t *testing.T) {
	e := NewTCPReassembly("asm")
	for flow := uint64(0); flow < 10000; flow++ {
		e.Process(netpkt.NewBatch(flow, []*netpkt.Packet{tcpSeg(flow, 100, "x")}))
	}
	if e.flows.Len() > 8192 {
		t.Errorf("FlowsTracked = %d, bound is 8192", e.flows.Len())
	}
	if e.flows.Evictions == 0 {
		t.Error("no evictions under churn")
	}
}

func TestNATFlowEviction(t *testing.T) {
	nat := NewNATRewrite("nat", 0x01010101)
	for flow := uint64(0); flow < 50000; flow++ {
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 80, FlowID: flow})
		nat.Process(netpkt.NewBatch(flow, []*netpkt.Packet{p}))
	}
	if nat.flows.Len() > 45000 {
		t.Errorf("FlowsTracked = %d, bound is 45000", nat.flows.Len())
	}
	if nat.flows.Evictions == 0 {
		t.Error("no evictions under churn")
	}
}

// TestNATHotFlowKeepsItsPort: the allocator walks its 45 536-port range in
// order and wraps, so a flow that stays mapped through a full turn (it is
// refreshed, never evicted) must have its port skipped — a NAT never maps
// two live flows to one public 5-tuple.
func TestNATHotFlowKeepsItsPort(t *testing.T) {
	nat := NewNATRewrite("nat", 0x01010101)
	send := func(flow uint64) uint16 {
		p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 80, FlowID: flow})
		nat.Process(netpkt.NewBatch(flow, []*netpkt.Packet{p}))
		l4 := p.L4()
		return uint16(l4[0])<<8 | uint16(l4[1])
	}
	const hot = uint64(1) << 40
	hotPort := send(hot)
	for flow := uint64(0); flow < 47000; flow++ {
		if got := send(flow); got == hotPort {
			t.Fatalf("flow %d was given port %d, which the hot flow still holds", flow, got)
		}
		if flow%64 == 0 {
			if got := send(hot); got != hotPort {
				t.Fatalf("hot flow remapped %d -> %d after %d flows", hotPort, got, flow)
			}
		}
	}
	// Reset forgets the mappings and the ports they held.
	nat.Reset()
	if got := send(7); got != hotPort {
		t.Fatalf("first port after Reset = %d, want %d", got, hotPort)
	}
}

// Evicting a reassembly flow releases its held-byte budget.
func TestReassemblyEvictionReleasesHeldBytes(t *testing.T) {
	e := NewTCPReassembly("asm")
	// Flow 1: establish, then buffer a gap segment.
	e.Process(netpkt.NewBatch(0, []*netpkt.Packet{tcpSeg(1, 100, "x")}))
	e.Process(netpkt.NewBatch(1, []*netpkt.Packet{tcpSeg(1, 200, "heldheld")}))
	if e.HeldBytes == 0 {
		t.Fatal("nothing held")
	}
	// Churn enough new flows to evict flow 1.
	for flow := uint64(100); flow < 100+8300; flow++ {
		e.Process(netpkt.NewBatch(flow, []*netpkt.Packet{tcpSeg(flow, 100, "y")}))
	}
	if e.HeldBytes != 0 {
		t.Errorf("HeldBytes = %d after eviction", e.HeldBytes)
	}
}
