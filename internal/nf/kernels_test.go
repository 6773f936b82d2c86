package nf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nfcompass/internal/ac"
	"nfcompass/internal/element"
	"nfcompass/internal/ipsec"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/trie"
)

// acPerPacket is the packet-at-a-time walk AhoCorasickMatch.Process used to
// be, kept as the reference the batch path must agree with.
func acPerPacket(e *AhoCorasickMatch, b *netpkt.Batch) {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		pl := p.Payload()
		if pl == nil {
			continue
		}
		_, matches, deep := e.m.ScanFrom(ac.StartState, pl)
		e.DeepStates += uint64(deep)
		e.ScannedB += uint64(len(pl))
		if matches > 0 {
			e.Alerts++
			if e.DropOnMatch {
				p.Drop(e.name)
			}
		}
	}
}

// streamPerPacket is the same for StreamAhoCorasick.Process.
func streamPerPacket(e *StreamAhoCorasick, b *netpkt.Batch) {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		fs, _ := e.flows.Get(p.FlowID)
		if e.DropOnMatch && fs.tainted {
			p.Drop(e.name + "/tainted-flow")
			continue
		}
		pl := p.Payload()
		if pl == nil {
			continue
		}
		state, matches, deep := e.m.ScanFrom(fs.state, pl)
		fs.state = state
		e.DeepStates += uint64(deep)
		if matches > 0 {
			e.Alerts++
			if e.DropOnMatch {
				fs.tainted = true
				p.Drop(e.name)
			}
		}
		e.flows.Put(p.FlowID, fs)
	}
}

// scanTraffic builds the same batches twice: 0–70 packets each, uneven
// payload lengths (some empty), some payloads carrying a pattern, some
// packets already dropped upstream and some unparsed (nil payload).
func scanTraffic(seed int64, batches, flows int, patterns []string) (a, b []*netpkt.Batch) {
	build := func() []*netpkt.Batch {
		rng := rand.New(rand.NewSource(seed))
		out := make([]*netpkt.Batch, batches)
		for bi := range out {
			pkts := make([]*netpkt.Packet, rng.Intn(71))
			for i := range pkts {
				pay := make([]byte, rng.Intn(90))
				for j := range pay {
					pay[j] = "abcdx "[rng.Intn(6)]
				}
				if pat := patterns[rng.Intn(len(patterns))]; rng.Intn(4) == 0 && len(pat) <= len(pay) {
					copy(pay[rng.Intn(len(pay)-len(pat)+1):], pat)
				}
				flow := uint64(1 + rng.Intn(flows))
				p := tcpSeg(flow, uint32(rng.Intn(1<<20)), string(pay))
				switch rng.Intn(12) {
				case 0:
					p.Drop("upstream")
				case 1:
					p = netpkt.NewPacket(p.Data) // never parsed: no payload
					p.FlowID = flow
				}
				pkts[i] = p
			}
			out[bi] = netpkt.NewBatch(uint64(bi), pkts)
		}
		return out
	}
	return build(), build()
}

// sameVerdicts compares the per-packet drop decisions of two runs.
func sameVerdicts(t *testing.T, got, want []*netpkt.Batch) {
	t.Helper()
	for bi := range want {
		for i, w := range want[bi].Packets {
			g := got[bi].Packets[i]
			if g.Dropped != w.Dropped || g.DropReason != w.DropReason {
				t.Fatalf("batch %d packet %d: dropped=%v %q, per-packet walk dropped=%v %q",
					bi, i, g.Dropped, g.DropReason, w.Dropped, w.DropReason)
			}
		}
	}
}

func TestAhoCorasickProcessVsPerPacket(t *testing.T) {
	patterns := []string{"abc", "bcd", "cab", "dd", "abcab"}
	m, _ := ac.NewMatcherStrings(patterns)
	for _, drop := range []bool{false, true} {
		got, want := scanTraffic(3, 60, 50, patterns)
		e := NewAhoCorasickMatch("ac", "t", m, drop)
		ref := NewAhoCorasickMatch("ac", "t", m, drop)
		for bi := range got {
			if out := e.Process(got[bi]); len(out) != 1 || out[0] != got[bi] {
				t.Fatalf("Process returned %v", out)
			}
			acPerPacket(ref, want[bi])
		}
		sameVerdicts(t, got, want)
		if e.Alerts != ref.Alerts || e.DeepStates != ref.DeepStates || e.ScannedB != ref.ScannedB {
			t.Errorf("drop=%v: Alerts/DeepStates/ScannedB = %d/%d/%d, per-packet walk %d/%d/%d", drop,
				e.Alerts, e.DeepStates, e.ScannedB, ref.Alerts, ref.DeepStates, ref.ScannedB)
		}
		if e.Alerts == 0 || e.DeepStates == 0 {
			t.Error("traffic exercised nothing")
		}
	}
}

func TestStreamAhoCorasickVsPerPacket(t *testing.T) {
	patterns := []string{"abc", "bcd", "cab", "dd", "abcab"}
	m, _ := ac.NewMatcherStrings(patterns)
	// 40 flows: most batches repeat flows. 40000 flows: the 8192-entry
	// table fills and inserts evict.
	for _, flows := range []int{40, 40000} {
		for _, drop := range []bool{false, true} {
			got, want := scanTraffic(5, 400, flows, patterns)
			e := NewStreamAhoCorasick("sac", "t", m, drop)
			ref := NewStreamAhoCorasick("sac", "t", m, drop)
			for bi := range got {
				e.Process(got[bi])
				streamPerPacket(ref, want[bi])
			}
			sameVerdicts(t, got, want)
			if e.Alerts != ref.Alerts || e.DeepStates != ref.DeepStates {
				t.Errorf("flows=%d drop=%v: Alerts/DeepStates = %d/%d, per-packet walk %d/%d",
					flows, drop, e.Alerts, e.DeepStates, ref.Alerts, ref.DeepStates)
			}
			// Same flow table: same evictions, same entries, same recency
			// order. Checked in that order, because the dump drains the
			// table: a table's worth of fresh keys evicts every entry, least
			// recently used first.
			if e.flows.Evictions != ref.flows.Evictions {
				t.Errorf("flows=%d drop=%v: evictions %d, per-packet walk %d",
					flows, drop, e.flows.Evictions, ref.flows.Evictions)
			}
			if flows > reassemblyFlowCapacity && ref.flows.Evictions == 0 {
				t.Error("table never filled")
			}
			dump := func(x *StreamAhoCorasick) string {
				const fresh = 1 << 63
				var sb bytes.Buffer
				x.flows.OnEvict = func(k uint64, v streamFlow) {
					if k < fresh {
						fmt.Fprintf(&sb, "%d:%d:%v ", k, v.state, v.tainted)
					}
				}
				for k := 0; k < x.flows.Capacity(); k++ {
					x.flows.Put(fresh|uint64(k), streamFlow{})
				}
				return sb.String()
			}
			if dump(e) != dump(ref) {
				t.Errorf("flows=%d drop=%v: flow table differs from the per-packet walk's", flows, drop)
			}
		}
	}
}

func TestAhoCorasickProcessAllocs(t *testing.T) {
	m, _ := ac.NewMatcherStrings([]string{"attack", "evil", "aaaa"})
	e := NewAhoCorasickMatch("ac", "t", m, false)
	host := element.NewHostBackend()
	b := testBatch(64, 200)
	host.Process(e, b) // sizes the staging once
	if n := testing.AllocsPerRun(100, func() { host.Process(e, b) }); n != 0 {
		t.Errorf("AhoCorasickMatch: %.1f allocs per batch, want 0", n)
	}
	if e.Alerts == 0 {
		t.Error("nothing matched")
	}
}

func TestIPsecSealAllocs(t *testing.T) {
	gw := NewIPsecGateway("ipsec", 0x99, []byte("0123456789abcdef"), []byte("auth"))
	g := element.NewGraph()
	_, exit := gw.Build(g, "ipsec")
	e := g.Node(exit).(*IPsecSeal)
	host := element.NewHostBackend()
	b := testBatch(64, 1000)
	plain := make([][]byte, len(b.Packets))
	for i, p := range b.Packets {
		// A buffer with the ESP overhead as tailroom, as an arena packet
		// holds once it has been sealed once.
		plain[i] = p.Data
		p.Data = append(make([]byte, 0, len(p.Data)+ipsec.Overhead()), p.Data...)
	}
	run := func() {
		for i, p := range b.Packets { // unseal: each run sees fresh plaintext
			p.Data, p.L4Proto = p.Data[:copy(p.Data[:cap(p.Data)], plain[i])], netpkt.IPProtoUDP
		}
		host.Process(e, b)
	}
	bufs := make([]*byte, len(b.Packets))
	for i, p := range b.Packets {
		bufs[i] = &p.Data[0]
	}
	// Per packet: the standard library's CTR stream (one object on go1.24,
	// three before it) and nothing for the buffer.
	block, _ := aes.NewCipher(make([]byte, 16))
	var buf [64]byte
	ctr := testing.AllocsPerRun(50, func() { cipher.NewCTR(block, buf[:16]).XORKeyStream(buf[:], buf[:]) })
	if n := testing.AllocsPerRun(50, run) / float64(len(b.Packets)); n > ctr {
		t.Errorf("IPsecSeal: %.2f allocs per packet, want <= %.0f (the CTR stream)", n, ctr)
	}
	for i, p := range b.Packets {
		if &p.Data[0] != bufs[i] {
			t.Fatalf("packet %d sealed outside the buffer it had room in", i)
		}
	}
	if e.Sealed == 0 || e.Errors != 0 {
		t.Errorf("Sealed = %d, Errors = %d", e.Sealed, e.Errors)
	}
}

// The seal's buffer handling cannot show in its bytes: a packet with dirty
// tailroom is sealed where it is, one without room and a shallow-cloned
// one move to a buffer of their own, and all three seal the same bytes,
// which decrypt. The sealed packet's clone keeps reading the plaintext.
func TestIPsecSealBuffers(t *testing.T) {
	enc, auth := []byte("0123456789abcdef"), []byte("auth")
	frame := testBatch(1, 300).Packets[0]
	l4, plain := frame.L4Offset, append([]byte(nil), frame.Data...)
	parsed := func(data []byte) *netpkt.Packet {
		p := netpkt.NewPacket(data)
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	roomy := append(bytes.Repeat([]byte{0xee}, len(plain)+64)[:0], plain...)
	withRoom := func() []byte { return append(make([]byte, 0, len(plain)+64), plain...) }
	tight := parsed(slices.Clip(append([]byte(nil), plain...)))
	orig := parsed(withRoom()) // room, but a clone reads its bytes
	clone := netpkt.NewBatch(0, []*netpkt.Packet{orig}).ShallowClone().Packets[0]
	defer netpkt.PutPacket(clone)
	var sealed [][]byte
	for _, p := range []*netpkt.Packet{parsed(roomy), tight, orig} {
		g := element.NewGraph()
		_, exit := NewIPsecGateway("ipsec", 0x99, enc, auth).Build(g, "ipsec")
		g.Node(exit).(*IPsecSeal).ProcessSingle(netpkt.NewBatch(0, []*netpkt.Packet{p}))
		if p.Dropped || len(p.Data) != len(plain)+ipsec.Overhead() {
			t.Fatalf("seal: dropped=%v len=%d", p.Dropped, len(p.Data))
		}
		sealed = append(sealed, p.Data)
	}
	if &sealed[0][0] != &roomy[0] || !bytes.Equal(roomy[len(sealed[0]):len(plain)+64], bytes.Repeat([]byte{0xee}, 64-ipsec.Overhead())) {
		t.Error("a packet with room was not sealed in place, or sealed past its growth")
	}
	if !bytes.Equal(sealed[0], sealed[1]) || !bytes.Equal(sealed[0], sealed[2]) {
		t.Errorf("sealed bytes depend on the buffer:\n%x\n%x\n%x", sealed[0], sealed[1], sealed[2])
	}
	if !bytes.Equal(clone.Data, plain) {
		t.Error("sealing a shallow-cloned packet changed the bytes its clone reads")
	}
	rx, _ := ipsec.NewSA(0x99, enc, auth)
	if pt, err := rx.Open(sealed[1][l4:]); err != nil || !bytes.Equal(pt, plain[l4:]) {
		t.Errorf("Open = %x, %v", pt, err)
	}
	// The other way round: the clone is sealed, the original keeps its bytes.
	orig = parsed(withRoom())
	clone2 := netpkt.NewBatch(0, []*netpkt.Packet{orig}).ShallowClone().Packets[0]
	defer netpkt.PutPacket(clone2)
	g := element.NewGraph()
	_, exit := NewIPsecGateway("ipsec", 0x99, enc, auth).Build(g, "ipsec")
	g.Node(exit).(*IPsecSeal).ProcessSingle(netpkt.NewBatch(0, []*netpkt.Packet{clone2}))
	if !bytes.Equal(orig.Data, plain) || !bytes.Equal(clone2.Data, sealed[0]) {
		t.Error("sealing a shallow clone changed the original's bytes")
	}
}

// BenchmarkIPsecSealBatch seals a 64-packet batch of 1 KiB frames in the
// packets' own buffers; each iteration truncates them back first.
func BenchmarkIPsecSealBatch(b *testing.B) {
	g := element.NewGraph()
	_, exit := NewIPsecGateway("ipsec", 0x99, []byte("0123456789abcdef"), []byte("auth")).Build(g, "ipsec")
	e := g.Node(exit).(*IPsecSeal)
	batch := testBatch(64, 1024-42)
	n := len(batch.Packets[0].Data)
	b.SetBytes(int64(n * len(batch.Packets)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, p := range batch.Packets {
			p.Data = p.Data[:n]
		}
		e.ProcessSingle(batch)
	}
}

// A packet whose IPv4 header carries options must leave an NF that rewrites
// its length with a checksum over the whole header, or the next header check
// drops it. The ESP seal and the WAN compressor both rewrite it.
func TestIPsecSealKeepsOptionHeaderValid(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nf    *NF
		proto netpkt.IPProto
	}{
		{"ipsec", NewIPsecGateway("ipsec", 0x99, []byte("0123456789abcdef"), []byte("auth")), netpkt.IPProtoESP},
		{"wanopt", NewWANOptimizer("wan"), netpkt.IPProtoUDP},
	} {
		base := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 1024, DstPort: 80,
			// Byte runs, so that the compressor shortens the packet.
			Payload: bytes.Repeat([]byte("."), 64),
		})
		// Rebuild the frame with IHL = 6: three NOPs and an end-of-options.
		l3 := base.L3Offset
		data := append([]byte(nil), base.Data[:l3+netpkt.IPv4MinHeaderLen]...)
		data = append(data, 1, 1, 1, 0)
		data = append(data, base.Data[l3+netpkt.IPv4MinHeaderLen:]...)
		h := data[l3 : l3+24]
		h[0] = 4<<4 | 6
		binary.BigEndian.PutUint16(h[2:4], uint16(len(data)-l3))
		h[10], h[11] = 0, 0
		binary.BigEndian.PutUint16(h[10:12], netpkt.Checksum(h))
		p := netpkt.NewPacket(data)
		if err := p.Parse(); err != nil {
			t.Fatal(err)
		}

		var tr trie.IPv4Trie
		_ = tr.Insert(0, 0, 1)
		g, _, dst := BuildChain([]*NF{tc.nf, NewIPv4Router("r", trie.BuildDir24_8(&tr), "default")})
		x, err := element.NewExecutor(g)
		if err != nil {
			t.Fatal(err)
		}
		out, err := x.RunBatch(netpkt.NewBatch(0, []*netpkt.Packet{p}))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Data) == len(data) {
			t.Errorf("%s: packet length unchanged, the header was never rewritten", tc.name)
		}
		if len(out[dst]) == 0 || out[dst][0].Live() != 1 {
			t.Fatalf("IHL=6 packet not delivered through %s,ipv4: dropped=%v %q", tc.name, p.Dropped, p.DropReason)
		}
		if p.L4Proto != tc.proto || !netpkt.IPv4HeaderChecksumOK(p.L3()) {
			t.Errorf("%s: delivered packet: proto %d, checksum ok = %v", tc.name, p.L4Proto, netpkt.IPv4HeaderChecksumOK(p.L3()))
		}
	}
}

// An SA whose sequence space runs out mid-batch costs exactly the packets it
// can no longer number: each is dropped under the element's name and booked
// once, the packets before it seal normally, and Reset re-arms the element's
// counters — not the SA, which stays spent until it is replaced.
func TestIPsecSealSequenceExhausted(t *testing.T) {
	gw := NewIPsecGateway("ipsec", 0x99, []byte("0123456789abcdef"), []byte("auth"))
	g, _, dst := BuildChain([]*NF{gw})
	var e *IPsecSeal
	for i := 0; i < g.Len(); i++ {
		if s, ok := g.Node(element.NodeID(i)).(*IPsecSeal); ok {
			e = s
		}
	}
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	e.sa.SetSeq(math.MaxUint32 - (n - 1)) // room for all but the last packet
	b := testBatch(n, 64)
	plain := len(b.Packets[0].Data)
	out, err := x.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[dst][0].Live(); got != n-1 {
		t.Fatalf("%d packets delivered, want %d", got, n-1)
	}
	for i, p := range b.Packets[:n-1] {
		seq := binary.BigEndian.Uint32(p.Data[p.L4Offset+4:])
		if p.Dropped || p.L4Proto != netpkt.IPProtoESP || seq != math.MaxUint32-uint32(n-2-i) {
			t.Errorf("packet %d: dropped=%v proto=%d seq=%#x, want sealed with the SA's last numbers", i, p.Dropped, p.L4Proto, seq)
		}
	}
	if last := b.Packets[n-1]; !last.Dropped || len(last.Data) != plain || last.L4Proto != netpkt.IPProtoUDP {
		t.Errorf("packet past the sequence space: dropped=%v len=%d proto=%d, want dropped untouched",
			last.Dropped, len(last.Data), last.L4Proto)
	}
	// The executor takes the reason off the packet as it books the drop.
	if e.Sealed != n-1 || e.Errors != 1 || x.Stats.Drops[e.Name()] != 1 || len(x.Stats.Drops) != 1 {
		t.Errorf("Sealed=%d Errors=%d executor drops=%v, want %d, 1 and one drop under %q",
			e.Sealed, e.Errors, x.Stats.Drops, n-1, e.Name())
	}

	// A spent SA refuses everything until it is replaced ...
	b = testBatch(n, 64)
	if _, err := x.RunBatch(b); err != nil {
		t.Fatal(err)
	}
	if e.Sealed != n-1 || e.Errors != 1+n || x.Stats.Drops[e.Name()] != 1+n {
		t.Errorf("spent SA: Sealed=%d Errors=%d executor drops=%v, want every further packet refused",
			e.Sealed, e.Errors, x.Stats.Drops)
	}
	// ... and Reset is that replacement: counters from zero, the sequence
	// counter back where the element was built with it, so the next run
	// seals the bytes a first run would have.
	e.Reset()
	if e.Sealed != 0 || e.Errors != 0 {
		t.Fatalf("after Reset: Sealed=%d Errors=%d", e.Sealed, e.Errors)
	}
	b = testBatch(n, 64)
	if _, err := x.RunBatch(b); err != nil {
		t.Fatal(err)
	}
	if p := b.Packets[0]; e.Sealed != n || e.Errors != 0 || p.Dropped || binary.BigEndian.Uint32(p.Data[p.L4Offset+4:]) != 1 {
		t.Errorf("after Reset: Sealed=%d Errors=%d first packet dropped=%v, want %d sealed from sequence number 1",
			e.Sealed, e.Errors, p.Dropped, n)
	}
}
