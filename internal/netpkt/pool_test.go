package netpkt

import (
	"bytes"
	"sync"
	"testing"
)

func poolPacket(t *testing.T, n int, fill byte) *Packet {
	t.Helper()
	p := GetPacket(n)
	for i := range p.Data {
		p.Data[i] = fill
	}
	return p
}

// TestPooledCloneEquivalence: CloneInto and Batch.ClonePooled must reproduce exactly
// what Clone produces — bytes, annotations, offsets, drop state.
func TestPooledCloneEquivalence(t *testing.T) {
	src := NewPacket([]byte{1, 2, 3, 4, 5})
	src.FlowID = 42
	src.Paint = 7
	src.SeqInBatch = 3
	src.Drop("why")
	src.UserAnno[0] = 0xAA

	ref := src.Clone()
	got := GetPacket(len(src.Data))
	src.CloneInto(got)
	defer PutPacket(got)
	if !bytes.Equal(ref.Data, got.Data) || got.FlowID != ref.FlowID ||
		got.Paint != ref.Paint || got.SeqInBatch != ref.SeqInBatch ||
		got.Dropped != ref.Dropped || got.DropReason != ref.DropReason ||
		got.UserAnno != ref.UserAnno {
		t.Fatalf("pooled clone differs: %v vs %v", got, ref)
	}
	// Mutating the clone must not touch the source.
	got.Data[0] = 99
	if src.Data[0] != 1 {
		t.Fatal("pooled clone shares bytes with source")
	}

	b := NewBatch(9, []*Packet{NewPacket([]byte{1, 1}), NewPacket([]byte{2, 2})})
	b.Branch = 5
	pb := b.ClonePooled()
	if pb.ID != 9 || pb.Branch != 5 || len(pb.Packets) != 2 ||
		!bytes.Equal(pb.Packets[1].Data, []byte{2, 2}) {
		t.Fatalf("pooled batch clone wrong: %+v", pb)
	}
	pb.Release()
}

// TestPoolDoubleReleasePanics: releasing the same packet or batch twice
// must fail loudly at the release site.
func TestPoolDoubleReleasePanics(t *testing.T) {
	p := GetPacket(8)
	PutPacket(p)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second PutPacket did not panic")
			}
		}()
		PutPacket(p)
	}()

	b := defaultArena.GetBatch(4)
	PutBatch(b)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second PutBatch did not panic")
			}
		}()
		PutBatch(b)
	}()
}

// TestPoolPoisoning: with poisoning on, a stale reference held across Put
// observes PoisonByte, not the old payload.
func TestPoolPoisoning(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	p := poolPacket(t, 16, 0x55)
	stale := p.Data
	PutPacket(p)
	for i, c := range stale {
		if c != PoisonByte {
			t.Fatalf("byte %d = %#x after release, want poison %#x", i, c, PoisonByte)
		}
	}
}

// TestPoolSharedBuffersNotRecycled: a buffer aliased by a shallow clone
// must never come back from GetPacket, and poisoning must not clobber the
// clone's view.
func TestPoolSharedBuffersNotRecycled(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)

	p := poolPacket(t, 16, 0x66)
	q := shallowClone(p)
	if &p.Data[0] != &q.Data[0] {
		t.Fatal("shallow clone does not share bytes")
	}
	PutPacket(p) // must drop, not poison or recycle, the shared buffer
	for i, c := range q.Data {
		if c != 0x66 {
			t.Fatalf("shallow clone byte %d corrupted to %#x by release", i, c)
		}
	}
	// The original is left to the garbage collector; no GetPacket may hand
	// out the buffer the clone still reads.
	r := GetPacket(16)
	defer PutPacket(r)
	if len(q.Data) == len(r.Data) && &q.Data[0] == &r.Data[0] {
		t.Fatal("shared buffer was recycled into a new packet")
	}
}

// TestPoolConcurrentArena: hammer the arena from many goroutines; run under
// -race in CI to prove Get/Put/poison have no data races.
func TestPoolConcurrentArena(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := GetPacket(64 + i%64)
				p.Data[0] = byte(g)
				b := defaultArena.GetBatch(4)
				b.Packets = append(b.Packets, p)
				b.ID = uint64(i)
				if got := b.Packets[0].Data[0]; got != byte(g) {
					t.Errorf("lost write: %d != %d", got, g)
					return
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestFlowKeyStability: FlowKey must be identical for packets of one flow
// and must not require Parse (no offset mutation).
func TestFlowKeyStability(t *testing.T) {
	p1 := NewPacket(buildUDP(t, 0x0a000001, 0x0a000002, 1000, 2000))
	p2 := NewPacket(buildUDP(t, 0x0a000001, 0x0a000002, 1000, 2000))
	p3 := NewPacket(buildUDP(t, 0x0a000001, 0x0a000002, 1000, 2001))
	if p1.FlowKey() != p2.FlowKey() {
		t.Fatal("same 5-tuple, different keys")
	}
	if p1.FlowKey() == p3.FlowKey() {
		t.Fatal("different ports, same key (suspicious for a 64-bit hash)")
	}
	if p1.L3Offset != -1 {
		t.Fatal("FlowKey mutated parse offsets")
	}

	// FlowID annotation dominates the wire tuple.
	p3.FlowID = 7
	p4 := NewPacket([]byte{0, 1, 2})
	p4.FlowID = 7
	if p3.FlowKey() != p4.FlowKey() {
		t.Fatal("FlowID-keyed packets disagree")
	}
}

func buildUDP(t *testing.T, src, dst uint32, sport, dport uint16) []byte {
	t.Helper()
	p := BuildUDPv4(UDPPacketSpec{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: IPv4Addr(src), DstIP: IPv4Addr(dst),
		SrcPort: sport, DstPort: dport,
		Payload: []byte("payload"),
	})
	return p.Data
}

// shallowClone is p's shallow clone, drawn as Batch.ShallowClone draws it.
func shallowClone(p *Packet) *Packet {
	return NewBatch(0, []*Packet{p}).ShallowClone().Packets[0]
}

// TestShallowClonePooledHeaders: a released shallow clone is a buffer-less
// header and must never come back from GetPacket (which would then allocate
// a buffer per packet); once every clone is released Unshare makes the
// original's buffer recyclable again.
func TestShallowClonePooledHeaders(t *testing.T) {
	a := NewArena()
	p := a.GetPacket(64)
	q := shallowClone(p)
	if &q.Data[0] != &p.Data[0] || q.arena != a {
		t.Fatal("shallow clone must alias the bytes and belong to the original's arena")
	}
	if n := a.Outstanding(); n != 1 {
		t.Fatalf("outstanding = %d with one buffer drawn: headers are not buffers", n)
	}
	PutPacket(q)
	var drawn []*Packet
	for i := 0; i < 8; i++ {
		r := a.GetPacket(64)
		if r == q {
			t.Fatal("GetPacket handed out a released shallow-clone header")
		}
		drawn = append(drawn, r)
	}
	for _, r := range drawn {
		PutPacket(r)
	}

	alias := shallowClone(p)
	PutPacket(alias)
	if alias.Data != nil {
		t.Fatal("a shallow clone was released with the original's buffer attached")
	}
	p.Unshare()
	PutPacket(p)
	if p.Data == nil {
		t.Fatal("un-shared original was released without its buffer")
	}
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after releasing everything", n)
	}
}

// TestShallowCloneMixedArenas: a batch whose packets come from two arenas
// and from none is shallow-cloned a run of same-arena packets at a time;
// every clone header is drawn from its original's arena and released back
// to it, so a second clone draws the same headers again.
func TestShallowCloneMixedArenas(t *testing.T) {
	a, b := NewArena(), NewArena()
	from := []*Arena{a, a, b, a, b, b, nil, a}
	pkts := make([]*Packet, len(from))
	for i, ar := range from {
		if ar == nil {
			pkts[i] = NewPacket(make([]byte, 64))
			from[i] = defaultArena
		} else {
			pkts[i] = ar.GetPacket(64)
		}
		pkts[i].FlowID = uint64(i)
	}
	batch := NewBatch(1, pkts)
	headers := map[*Arena]map[*Packet]bool{a: {}, b: {}, defaultArena: {}}
	for round := 0; round < 2; round++ {
		clone := batch.ShallowClone()
		for i, q := range clone.Packets {
			if q.arena != from[i] || q.FlowID != uint64(i) || &q.Data[0] != &pkts[i].Data[0] {
				t.Fatalf("round %d, clone %d: wrong arena, annotations or bytes", round, i)
			}
			if round == 1 && !headers[from[i]][q] {
				t.Errorf("clone %d: the second clone drew a header its arena did not get back", i)
			}
			headers[from[i]][q] = true
		}
		clone.Release()
		for _, ar := range []*Arena{a, b} {
			if len(ar.headers) != len(headers[ar]) {
				t.Fatalf("round %d: an arena holds %d free headers, its clones were %d",
					round, len(ar.headers), len(headers[ar]))
			}
			for _, h := range ar.headers {
				if !headers[ar][h] {
					t.Fatalf("round %d: a header went back to another packet's arena", round)
				}
			}
		}
	}
}
