package element

import (
	"strings"
	"testing"

	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

func udpBatch(n int) *netpkt.Batch {
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP:   netpkt.IPv4Addr(0x0a000000 + i),
			DstIP:   netpkt.IPv4Addr(0xc0a80000 + i%4),
			SrcPort: uint16(1000 + i), DstPort: uint16(i % 3 * 100),
			Payload: []byte("payload"),
			FlowID:  uint64(i),
		})
	}
	return netpkt.NewBatch(1, pkts)
}

func TestLinearPipeline(t *testing.T) {
	g := NewGraph()
	src := g.Add(NewFromDevice("in"))
	chk := g.Add(NewCheckIPHeader("chk"))
	ttl := g.Add(NewDecTTL("ttl"))
	cnt := g.Add(NewCounter("cnt"))
	dst := g.Add(NewToDevice("out"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, ttl)
	g.MustConnect(ttl, 0, cnt)
	g.MustConnect(cnt, 0, dst)

	x, err := NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	b := udpBatch(8)
	out, err := x.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[dst]) != 1 || countLive(out[dst][0]) != 8 {
		t.Fatalf("sink got %v", out)
	}
	if x.Stats.Emitted != 8 {
		t.Errorf("Emitted = %d", x.Stats.Emitted)
	}
	// TTL must have been decremented and the checksum still valid.
	p := out[dst][0].Packets[0]
	ip, err := netpkt.ParseIPv4(p.L3())
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 63 {
		t.Errorf("TTL = %d, want 63", ip.TTL)
	}
	if !netpkt.IPv4HeaderChecksumOK(p.L3()) {
		t.Error("checksum invalid after DecTTL")
	}
}

func TestDecTTLExpires(t *testing.T) {
	e := NewDecTTL("ttl")
	p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, TTL: 1})
	b := netpkt.NewBatch(0, []*netpkt.Packet{p})
	e.Process(b)
	if !p.Dropped {
		t.Error("TTL-1 packet not dropped")
	}
	if e.Expired != 1 {
		t.Errorf("Expired = %d", e.Expired)
	}
}

func TestCheckIPHeaderDropsCorrupt(t *testing.T) {
	e := NewCheckIPHeader("chk")
	good := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2})
	bad := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2})
	bad.Data[netpkt.EthernetHeaderLen+10] ^= 0xff // corrupt checksum
	b := netpkt.NewBatch(0, []*netpkt.Packet{good, bad})
	e.Process(b)
	if good.Dropped {
		t.Error("good packet dropped")
	}
	if !bad.Dropped {
		t.Error("corrupt packet passed")
	}
}

func TestClassifierSplits(t *testing.T) {
	g := NewGraph()
	src := g.Add(NewFromDevice("in"))
	cls := g.Add(NewClassifier("cls", "by-dstport", 3, func(p *netpkt.Packet) int {
		l4 := p.L4()
		dport := int(l4[2])<<8 | int(l4[3])
		return dport / 100 % 3
	}))
	c0 := g.Add(NewCounter("c0"))
	c1 := g.Add(NewCounter("c1"))
	c2 := g.Add(NewCounter("c2"))
	d0 := g.Add(NewToDevice("d0"))
	d1 := g.Add(NewToDevice("d1"))
	d2 := g.Add(NewToDevice("d2"))
	g.MustConnect(src, 0, cls)
	g.MustConnect(cls, 0, c0)
	g.MustConnect(cls, 1, c1)
	g.MustConnect(cls, 2, c2)
	g.MustConnect(c0, 0, d0)
	g.MustConnect(c1, 0, d1)
	g.MustConnect(c2, 0, d2)

	x, err := NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunBatch(udpBatch(9)); err != nil {
		t.Fatal(err)
	}
	// dst ports are 0,100,200 cycling -> 3 packets per class.
	total := uint64(0)
	for _, c := range []*Counter{
		x.g.Node(c0).(*Counter), x.g.Node(c1).(*Counter), x.g.Node(c2).(*Counter),
	} {
		total += c.Packets
	}
	if total != 9 {
		t.Errorf("classified %d packets, want 9", total)
	}
	if x.Stats.Splits != 1 {
		t.Errorf("Splits = %d, want 1", x.Stats.Splits)
	}
	if x.Stats.SubBatches != 3+3 { // classifier's 3 + 3 counters' passthroughs
		t.Logf("SubBatches = %d (informational)", x.Stats.SubBatches)
	}
}

func TestTeeDuplicates(t *testing.T) {
	e := NewTee("tee", 3)
	b := udpBatch(4)
	outs := e.Process(b)
	if len(outs) != 3 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if outs[0] != b {
		t.Error("output 0 should be the original batch")
	}
	outs[1].Packets[0].Data[0] ^= 0xff
	if b.Packets[0].Data[0] == outs[1].Packets[0].Data[0] {
		t.Error("Tee output 1 shares buffers with the original")
	}
}

func TestIPLookupAnnotatesAndDrops(t *testing.T) {
	var tr trie.IPv4Trie
	if err := tr.Insert(0xc0a80000, 16, 5); err != nil {
		t.Fatal(err)
	}
	e := NewIPLookup("rt", "test", trie.BuildDir24_8(&tr))
	inRoute := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 0xc0a80001})
	noRoute := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 0x08080808})
	b := netpkt.NewBatch(0, []*netpkt.Packet{inRoute, noRoute})
	e.Process(b)
	if inRoute.Dropped || inRoute.UserAnno[0] != 5 {
		t.Errorf("routed packet: dropped=%v anno=%d", inRoute.Dropped, inRoute.UserAnno[0])
	}
	if !noRoute.Dropped {
		t.Error("unroutable packet not dropped")
	}
	if e.NoRoute != 1 {
		t.Errorf("NoRoute = %d", e.NoRoute)
	}
}

func TestPaintAndEtherEncap(t *testing.T) {
	p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2})
	b := netpkt.NewBatch(0, []*netpkt.Packet{p})
	NewPaint("p", 7).Process(b)
	if p.Paint != 7 {
		t.Errorf("Paint = %d", p.Paint)
	}
	src := netpkt.MAC{1, 1, 1, 1, 1, 1}
	dst := netpkt.MAC{2, 2, 2, 2, 2, 2}
	NewEtherEncap("ee", src, dst).Process(b)
	eth, _ := netpkt.ParseEthernet(p.Data)
	if eth.Src != src || eth.Dst != dst {
		t.Errorf("eth = %v -> %v", eth.Src, eth.Dst)
	}
}

func TestDiscard(t *testing.T) {
	e := NewDiscard("dis")
	b := udpBatch(3)
	e.Process(b)
	if b.Live() != 0 {
		t.Error("Discard left live packets")
	}
	if e.Dropped != 3 {
		t.Errorf("Dropped = %d", e.Dropped)
	}
}

func TestGraphValidation(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	b := g.Add(NewCounter("b"))
	g.MustConnect(a, 0, b)
	// b's output unconnected -> invalid.
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unconnected output")
	}
	d := g.Add(NewToDevice("d"))
	g.MustConnect(b, 0, d)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewCounter("a"))
	b := g.Add(NewCounter("b"))
	g.MustConnect(a, 0, b)
	g.MustConnect(b, 0, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
}

func TestGraphConnectErrors(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	if err := g.Connect(a, 1, a); err == nil {
		t.Error("accepted invalid port")
	}
	if err := g.Connect(a, 0, NodeID(99)); err == nil {
		t.Error("accepted unknown node")
	}
}

func TestGraphRemoveNodeSplices(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	b := g.Add(NewCounter("b"))
	c := g.Add(NewCounter("c"))
	d := g.Add(NewToDevice("d"))
	g.MustConnect(a, 0, b)
	g.MustConnect(b, 0, c)
	g.MustConnect(c, 0, d)
	if err := g.RemoveNode(b); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid after splice: %v\n%s", err, g)
	}
	// a (now 0) must connect directly to old c (now 1).
	found := false
	for _, e := range g.Edges() {
		if e.From == 0 && e.To == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("splice missing; edges = %v", g.Edges())
	}
}

func TestGraphStringAndAccessors(t *testing.T) {
	g := NewGraph()
	a := g.Add(NewFromDevice("a"))
	b := g.Add(NewToDevice("b"))
	g.MustConnect(a, 0, b)
	s := g.String()
	if !strings.Contains(s, "FromDevice") || !strings.Contains(s, "->") {
		t.Errorf("String = %q", s)
	}
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Error("Sources/Sinks wrong")
	}
}

func TestExecutorResetClearsState(t *testing.T) {
	g := NewGraph()
	src := g.Add(NewFromDevice("in"))
	cnt := g.Add(NewCounter("cnt"))
	dst := g.Add(NewToDevice("out"))
	g.MustConnect(src, 0, cnt)
	g.MustConnect(cnt, 0, dst)
	x, _ := NewExecutor(g)
	_, _ = x.RunBatch(udpBatch(5))
	x.Reset()
	if x.Stats.Emitted != 0 {
		t.Error("stats not reset")
	}
	if g.Node(cnt).(*Counter).Packets != 0 {
		t.Error("counter not reset")
	}
}

func TestDropAccounting(t *testing.T) {
	g := NewGraph()
	src := g.Add(NewFromDevice("in"))
	ttl := g.Add(NewDecTTL("ttl"))
	dst := g.Add(NewToDevice("out"))
	g.MustConnect(src, 0, ttl)
	g.MustConnect(ttl, 0, dst)
	x, _ := NewExecutor(g)
	p1 := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, TTL: 1})
	p2 := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 1, DstIP: 2, TTL: 9})
	_, err := x.RunBatch(netpkt.NewBatch(0, []*netpkt.Packet{p1, p2}))
	if err != nil {
		t.Fatal(err)
	}
	if x.Stats.Drops["ttl"] != 1 {
		t.Errorf("Drops = %v", x.Stats.Drops)
	}
	if x.Stats.Emitted != 1 {
		t.Errorf("Emitted = %d", x.Stats.Emitted)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassIO: "io", ClassClassifier: "classifier", ClassModifier: "modifier",
		ClassShaper: "shaper", ClassTerminal: "terminal", Class(99): "unknown",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func BenchmarkExecutorPipeline(b *testing.B) {
	g := NewGraph()
	src := g.Add(NewFromDevice("in"))
	chk := g.Add(NewCheckIPHeader("chk"))
	ttl := g.Add(NewDecTTL("ttl"))
	dst := g.Add(NewToDevice("out"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, ttl)
	g.MustConnect(ttl, 0, dst)
	x, err := NewExecutor(g)
	if err != nil {
		b.Fatal(err)
	}
	batch := udpBatch(64)
	b.SetBytes(int64(batch.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restore TTLs so DecTTL never drops mid-benchmark.
		for _, p := range batch.Packets {
			p.Data[netpkt.EthernetHeaderLen+8] = 64
			p.Dropped = false
		}
		if _, err := x.RunBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}
