package netpkt

import (
	"bytes"
	"testing"
)

// TestArenaRouting: packets and batches drawn from a private arena go back
// to that arena on release, whichever code path releases them, and never
// land in another arena. The assertions are the release's own bookkeeping
// (the object's arena, both arenas' Outstanding ledgers) rather than the
// identity of the next Get: sync.Pool may drop a Put — and under the race
// detector does so on purpose.
func TestArenaRouting(t *testing.T) {
	a := NewArena()
	def := defaultArena.Outstanding()
	p := a.GetPacket(32)
	if got := a.Outstanding(); got != 1 {
		t.Fatalf("Outstanding = %d after one GetPacket, want 1", got)
	}
	PutPacket(p) // package-level Put must route back to a
	if p.arena != a || !p.pooled {
		t.Fatalf("released packet: arena=%p pooled=%v, want arena %p", p.arena, p.pooled, a)
	}
	if a.Outstanding() != 0 || defaultArena.Outstanding() != def {
		t.Fatalf("after release: arena outstanding %d (want 0), default arena %d (want %d)",
			a.Outstanding(), defaultArena.Outstanding(), def)
	}

	b := a.GetBatch(4)
	q := a.GetPacket(8)
	b.Packets = append(b.Packets, q)
	b.Release()
	if b.arena != a || !b.pooled || q.arena != a || !q.pooled {
		t.Fatalf("released batch or its packet left the arena")
	}
	if a.Outstanding() != 0 || defaultArena.Outstanding() != def {
		t.Fatalf("after batch release: arena outstanding %d (want 0), default arena %d (want %d)",
			a.Outstanding(), defaultArena.Outstanding(), def)
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
