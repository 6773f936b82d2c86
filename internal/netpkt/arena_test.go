package netpkt

import (
	"bytes"
	"sync"
	"testing"
)

// TestArenaRouting: packets and batches drawn from a private arena go back
// to that arena on release, whichever code path releases them, and never
// land in another arena. The free stacks are LIFO, so the next Get hands
// back the object just released.
func TestArenaRouting(t *testing.T) {
	a := NewArena()
	def := defaultArena.Outstanding()
	p := a.GetPacket(32)
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after one GetPacket, want 1", got)
	}
	PutPacket(p) // package-level Put must route back to a
	if a.Outstanding() != 0 || defaultArena.Outstanding() != def {
		t.Fatalf("after release: arena outstanding %d (want 0), default arena %d (want %d)",
			a.Outstanding(), defaultArena.Outstanding(), def)
	}
	if got := a.GetPacket(16); got != p || got.arena != a || got.pooled {
		t.Fatalf("GetPacket after a release returned %p (arena %p, pooled %v), want %p from %p",
			got, got.arena, got.pooled, p, a)
	}

	b := a.GetBatch(4)
	b.Packets = append(b.Packets, p)
	b.Release()
	if a.Outstanding() != 0 || defaultArena.Outstanding() != def {
		t.Fatalf("after batch release: arena outstanding %d (want 0), default arena %d (want %d)",
			a.Outstanding(), defaultArena.Outstanding(), def)
	}
	if got := a.GetBatch(1); got != b || got.arena != a || got.pooled || len(got.Packets) != 0 {
		t.Fatalf("GetBatch after a release returned %p, want the released header %p, empty", got, b)
	}
	if got := a.GetPacket(8); got != p {
		t.Fatalf("GetPacket after a batch release returned %p, want its packet %p", got, p)
	}
}

// TestArenaHeapObjectsNotAdopted: a packet or batch header no arena handed
// out is left to the garbage collector on release; no arena hands it out
// afterwards, and the double-release check still holds for it.
func TestArenaHeapObjectsNotAdopted(t *testing.T) {
	a := NewArena()
	p := NewPacket(make([]byte, 64))
	PutPacket(p)
	b := NewBatch(1, nil)
	PutBatch(b)
	for i := 0; i < 4; i++ {
		q, r, c := GetPacket(64), a.GetPacket(64), a.GetBatch(1)
		if q == p || r == p || c == b {
			t.Fatal("an arena handed out an object built outside it")
		}
		defer PutPacket(q)
		defer PutPacket(r)
	}
	defer func() {
		if recover() == nil {
			t.Error("second PutPacket of a heap-built packet did not panic")
		}
	}()
	PutPacket(p)
}

// TestArenaConcurrentLedger: four goroutines draw batches of packets from
// one arena and release them with Batch.Release; no packet is ever held by
// two of them, and the ledger ends at zero.
func TestArenaConcurrentLedger(t *testing.T) {
	a := NewArena()
	var mu sync.Mutex
	held := map[*Packet]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := a.GetBatch(16)
				for k := 0; k < 16; k++ {
					b.Packets = append(b.Packets, a.GetPacket(64))
				}
				mu.Lock()
				for _, p := range b.Packets {
					if held[p] {
						t.Errorf("packet %p handed out twice", p)
					}
					held[p] = true
				}
				for _, p := range b.Packets {
					delete(held, p)
				}
				mu.Unlock()
				b.Release()
			}
		}()
	}
	wg.Wait()
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after every batch was released", n)
	}
}

// TestArenaCycleAllocs: a warm arena serves a batch's worth of GetPacket
// and takes it back in one Release without allocating, race detector or
// not.
func TestArenaCycleAllocs(t *testing.T) {
	a := NewArena()
	cycle := func() {
		b := a.GetBatch(64)
		for k := 0; k < 64; k++ {
			b.Packets = append(b.Packets, a.GetPacket(64))
		}
		b.Release()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("arena cycle: %.1f allocs/op, want 0", got)
	}
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after the cycles", n)
	}
}

// TestArenaCloneIntoPreservesAffinity: CloneInto must keep the destination
// packet's arena, not adopt the source's — otherwise per-shard clones of
// globally-built traffic would all drain into one pool.
func TestArenaCloneIntoPreservesAffinity(t *testing.T) {
	a := NewArena()
	def := defaultArena.Outstanding()
	src := NewPacket([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	src.FlowID = 7

	dst := a.GetPacket(0)
	src.CloneInto(dst)
	if !bytes.Equal(dst.Data, src.Data) || dst.FlowID != 7 {
		t.Fatalf("clone content wrong: %v", dst)
	}
	if dst.arena != a {
		t.Fatalf("CloneInto overwrote the destination arena")
	}
	PutPacket(dst)
	if dst.arena != a || a.Outstanding() != 0 || defaultArena.Outstanding() != def {
		t.Fatalf("cloned packet released into the wrong arena (outstanding %d, default %d want %d)",
			a.Outstanding(), defaultArena.Outstanding(), def)
	}
}

// TestArenaBatchClonePooled: Arena.ClonePooled keeps every packet of the
// clone inside the arena.
func TestArenaBatchClonePooled(t *testing.T) {
	a := NewArena()
	orig := NewBatch(3, []*Packet{
		NewPacket(bytes.Repeat([]byte{1}, 60)),
		NewPacket(bytes.Repeat([]byte{2}, 60)),
	})
	cl := a.ClonePooled(orig)
	if cl.ID != 3 || len(cl.Packets) != 2 {
		t.Fatalf("clone shape wrong: %+v", cl)
	}
	for i, p := range cl.Packets {
		if p.arena != a {
			t.Fatalf("packet %d not in arena", i)
		}
		if !bytes.Equal(p.Data, orig.Packets[i].Data) {
			t.Fatalf("packet %d bytes differ", i)
		}
	}
	cl.Release() // must not panic; routes everything back to a
}

// TestPutPacketsMixedArenas: a slice interleaving two arenas' packets with
// a heap-built one returns each arena packet to its own arena, ends both
// ledgers at zero, and a second release of any of them still panics.
func TestPutPacketsMixedArenas(t *testing.T) {
	a, b := NewArena(), NewArena()
	heap := NewPacket(make([]byte, 8))
	pkts := []*Packet{a.GetPacket(8), a.GetPacket(8), b.GetPacket(8), heap, a.GetPacket(8), b.GetPacket(8)}
	PutPackets(pkts)
	if a.Outstanding() != 0 || b.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d, %d after PutPackets, want 0, 0", a.Outstanding(), b.Outstanding())
	}
	for _, p := range pkts {
		if !p.pooled || (p != heap && p.arena != a && p.arena != b) {
			t.Fatalf("packet %p not released to its arena", p)
		}
	}
	// Each arena's free stack holds exactly its own three / two packets.
	if len(a.packets) != 3 || len(b.packets) != 2 {
		t.Fatalf("free stacks hold %d and %d packets, want 3 and 2", len(a.packets), len(b.packets))
	}
	for _, p := range a.packets {
		if p.arena != a {
			t.Fatal("arena a's free stack holds a foreign packet")
		}
	}
	for _, p := range pkts {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second release of %p did not panic", p)
				}
			}()
			PutPackets([]*Packet{p})
		}()
	}
}

// TestGrow: a private packet with room grows in place; one without room, or
// one whose bytes a shallow clone reads, moves to a copy and leaves the old
// bytes as they were.
func TestGrow(t *testing.T) {
	data := append(make([]byte, 0, 16), "abcd"...)
	p := NewPacket(data)
	p.Grow(12)
	if len(p.Data) != 16 || &p.Data[0] != &data[0] {
		t.Fatalf("Grow within room: len %d, moved %v", len(p.Data), &p.Data[0] != &data[0])
	}
	p.Grow(1)
	if len(p.Data) != 17 || &p.Data[0] == &data[0] || string(p.Data[:4]) != "abcd" {
		t.Fatalf("Grow past room: len %d, copied %q", len(p.Data), p.Data[:4])
	}
	q := NewPacket(append(make([]byte, 0, 16), "wxyz"...))
	c := shallowClone(q)
	defer PutPacket(c)
	q.Grow(4)
	q.Data[0] = '!'
	if len(q.Data) != 8 || string(c.Data) != "wxyz" {
		t.Fatalf("Grow of a shared packet wrote the clone's bytes: %q", c.Data)
	}
}
