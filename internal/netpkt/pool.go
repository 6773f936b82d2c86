package netpkt

import (
	"sync"
	"sync/atomic"
)

// This file implements the packet/batch arena: sync.Pool-backed recycling
// of Packet objects (with their wire-byte buffers) and Batch headers, so a
// steady-state dataplane hot path allocates nothing per batch.
//
// Ownership rules (see DESIGN.md §8 for the full story):
//
//   - GetPacket/GetBatch transfer ownership to the caller; PutPacket/
//     PutBatch (or Batch.Release) transfer it back. Exactly one Put per
//     Get.
//   - Releasing a packet twice is a bug: the second owner's buffer would
//     be handed to an unrelated Get and silently shared. PutPacket panics
//     on a double release so the bug surfaces at the release site instead
//     of as corruption downstream.
//   - Packets whose bytes are shared with a shallow clone (ShallowClone /
//     read-only Duplicator branches) are never recycled with their buffer:
//     Put drops the aliased buffer and parks the bare header in the arena's
//     header pool, which only ShallowClone draws from — a pooled header
//     never carries a buffer in and is never handed one by GetPacket.
//   - Packet.Unshare ends the sharing once every shallow clone is released
//     (the parallel stage's merge does this), so the original's buffer
//     recycles like any other.
//   - SetPoolPoison(true) (tests) overwrites released buffers with
//     PoisonByte, converting any use-after-release into a loud payload
//     mismatch.
//
// Arenas: recycling is organized into Arena domains. The package-level
// GetPacket/GetBatch draw from one process-wide default arena; callers that
// want isolation — one arena per dataplane shard, so replicas stop
// contending on (and cross-pollinating) a single global pool — construct
// their own with NewArena and allocate through its methods. Every packet
// and batch remembers its origin arena, so the release side stays uniform:
// PutPacket/PutBatch/Batch.Release route each object back to the arena it
// came from, whichever goroutine releases it.

// PoisonByte fills released buffers when poisoning is enabled.
const PoisonByte = 0xDB

var poisonPut atomic.Bool

// SetPoolPoison toggles poisoning of released packet buffers. Intended for
// tests: a reader holding a stale reference after Put sees PoisonByte
// instead of plausible stale data.
func SetPoolPoison(on bool) { poisonPut.Store(on) }

// Arena is one packet/batch recycling domain. The zero value is not usable;
// construct with NewArena. All methods are safe for concurrent use (the
// underlying sync.Pools are per-P sharded), but the point of multiple
// arenas is affinity: a shard that allocates and releases from its own
// arena keeps its buffers hot in its own cache and never steals capacity
// from a neighbour.
type Arena struct {
	packets sync.Pool
	batches sync.Pool
	// headers holds buffer-less Packet structs: released shallow clones and
	// packets released while still shared. Kept apart from packets so that
	// GetPacket always finds a recycled buffer.
	headers sync.Pool
	// outstanding counts packets drawn from this arena and not yet
	// released back — the pool-audit ledger. Clones and builder packets
	// are not counted (only Arena.GetPacket increments), so a drained
	// system reads exactly zero.
	outstanding atomic.Int64
}

// NewArena constructs an empty recycling domain.
func NewArena() *Arena {
	a := &Arena{}
	a.packets.New = func() any { return &Packet{L3Offset: -1, L4Offset: -1, arena: a} }
	a.batches.New = func() any { return &Batch{arena: a} }
	a.headers.New = func() any { return new(Packet) }
	return a
}

// defaultArena backs the package-level GetPacket/GetBatch.
var defaultArena = NewArena()

// GetPacket returns a reset packet from this arena with an n-byte buffer,
// reusing the recycled buffer's capacity when it suffices. The buffer
// contents are unspecified; callers overwrite them (CloneInto, copy).
func (a *Arena) GetPacket(n int) *Packet {
	p := a.packets.Get().(*Packet)
	data := p.Data
	if cap(data) < n {
		data = make([]byte, n)
	} else {
		data = data[:n]
	}
	*p = Packet{Data: data, L3Offset: -1, L4Offset: -1, arena: a, counted: true}
	a.outstanding.Add(1)
	return p
}

// Outstanding reports how many packets drawn from this arena have not yet
// been released back. Zero after a full drain; a positive residue is a leak
// (a packet abandoned without PutPacket). Batch headers and clones are not
// tracked — the audit follows buffer ownership, which is what leaks hurt.
func (a *Arena) Outstanding() int64 { return a.outstanding.Load() }

// GetBatch returns an empty batch from this arena whose Packets slice has
// at least the given capacity.
func (a *Arena) GetBatch(capacity int) *Batch {
	b := a.batches.Get().(*Batch)
	pkts := b.Packets[:0]
	if cap(pkts) < capacity {
		pkts = make([]*Packet, 0, capacity)
	}
	*b = Batch{Packets: pkts, arena: a}
	return b
}

// GetPacket returns a reset packet from the default arena (see
// Arena.GetPacket).
func GetPacket(n int) *Packet { return defaultArena.GetPacket(n) }

// Outstanding is the default arena's ledger (see Arena.Outstanding): what
// code that clones batches built outside any arena must leave as it found.
func Outstanding() int64 { return defaultArena.Outstanding() }

// PutPacket returns a packet to the arena it was drawn from (packets that
// never came from an arena — builders, Clone — join the default arena's
// pool). The caller must not touch the packet afterwards. Double release
// panics (see the ownership rules above); buffers aliased by a shallow
// clone are dropped rather than recycled.
func PutPacket(p *Packet) {
	if p == nil {
		return
	}
	if p.pooled {
		panic("netpkt: double release of Packet (already in pool)")
	}
	p.pooled = true
	if p.counted {
		p.counted = false
		if p.arena != nil {
			p.arena.outstanding.Add(-1)
		}
	}
	a := p.arena
	if a == nil {
		a = defaultArena
		p.arena = a
	}
	if p.shared {
		// A shallow clone aliases these bytes (or this is the clone);
		// recycling them would hand live data to an unrelated GetPacket.
		p.Data = nil
		a.headers.Put(p)
		return
	}
	if poisonPut.Load() {
		for i := range p.Data {
			p.Data[i] = PoisonByte
		}
	}
	a.packets.Put(p)
}

// PutBatch returns the batch header (not its packets) to its arena. Use
// Batch.Release to return both. Double release panics.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	if b.pooled {
		panic("netpkt: double release of Batch (already in pool)")
	}
	for i := range b.Packets {
		b.Packets[i] = nil // drop refs so pooled headers don't pin packets
	}
	b.Packets = b.Packets[:0]
	b.ID, b.Branch, b.Origin = 0, 0, nil
	b.pooled = true
	a := b.arena
	if a == nil {
		a = defaultArena
		b.arena = a
	}
	a.batches.Put(b)
}

// Release returns the batch and every packet it holds to their arenas. It
// is the sink-side counterpart of ClonePooled: whoever consumes a pooled
// batch calls Release exactly once, after which neither the batch nor its
// packets may be used.
func (b *Batch) Release() {
	for _, p := range b.Packets {
		PutPacket(p)
	}
	PutBatch(b)
}
