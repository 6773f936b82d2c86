package netpkt

import (
	"sync"
	"sync/atomic"
)

// This file implements the packet/batch arena: per-domain LIFO free stacks
// (DPDK's rte_mempool without the per-core caches) of Packet objects with
// their wire-byte buffers, buffer-less shallow-clone headers and Batch
// headers, so a steady-state dataplane hot path allocates nothing per
// batch. A draw pops under the arena's lock; Batch.Release pushes each run
// of same-arena packets under one lock, then the header, and a batch's
// clones draw each run's packets or headers under one lock too.
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
//     Put drops the aliased buffer. A shallow clone goes back to the
//     arena's header stack, which only ShallowClone draws from; an original
//     released while still shared is left to the garbage collector.
//   - Packet.Unshare ends the sharing once every shallow clone is released
//     (the parallel stage's merge does this), so the original's buffer
//     recycles like any other.
//   - SetPoolPoison(true) (tests) overwrites released buffers with
//     PoisonByte, converting any use-after-release into a loud payload
//     mismatch.
//
// Arenas: the package-level GetPacket draws from one process-wide default
// arena; callers that want isolation (one arena per NIC queue) construct
// their own with NewArena. Every drawn packet and batch remembers its
// arena, and PutPacket/PutBatch/Batch.Release route it back there,
// whichever goroutine releases it. An object no arena handed out
// (NewPacket, NewBatch, Clone, Derive) is left to the garbage collector, so
// each free stack holds at most its own arena's peak draw.

// PoisonByte fills released buffers when poisoning is enabled.
const PoisonByte = 0xDB

var poisonPut atomic.Bool

// SetPoolPoison toggles poisoning of released packet buffers. Intended for
// tests: a reader holding a stale reference after Put sees PoisonByte
// instead of plausible stale data.
func SetPoolPoison(on bool) { poisonPut.Store(on) }

// stack is a LIFO free list of released objects; its arena's lock guards it.
type stack[T any] []*T

func (s *stack[T]) push(x *T) { *s = append(*s, x) }

// pop returns the most recently pushed object, or a new zero one.
func (s *stack[T]) pop() *T {
	n := len(*s) - 1
	if n < 0 {
		return new(T)
	}
	x := (*s)[n]
	(*s)[n] = nil
	*s = (*s)[:n]
	return x
}

// Arena is one packet/batch recycling domain. Construct with NewArena. All
// methods are safe for concurrent use; an arena per queue keeps its buffers
// hot and its lock uncontended.
type Arena struct {
	mu      sync.Mutex
	packets stack[Packet]
	// headers holds released shallow clones, kept apart from packets so
	// that GetPacket always finds a recycled buffer.
	headers stack[Packet]
	batches stack[Batch]
	// outstanding counts packets drawn by GetPacket and not yet released
	// back — the pool-audit ledger; a drained system reads exactly zero.
	outstanding int64
}

// NewArena constructs an empty recycling domain.
func NewArena() *Arena { return &Arena{} }

// defaultArena backs the package-level GetPacket.
var defaultArena = NewArena()

// GetPacket returns a reset packet from this arena with an n-byte buffer,
// reusing the recycled buffer's capacity when it suffices. The buffer
// contents are unspecified; callers overwrite them (CloneInto, copy).
func (a *Arena) GetPacket(n int) *Packet {
	a.mu.Lock()
	p := a.packets.pop()
	a.outstanding++
	a.mu.Unlock()
	data := p.Data
	if cap(data) < n {
		data = make([]byte, n)
	} else {
		data = data[:n]
	}
	*p = Packet{} // zeroed in place: a composite literal would be copied in
	p.Data, p.L3Offset, p.L4Offset, p.arena, p.counted = data, -1, -1, a, true
	return p
}

// Outstanding reports how many packets drawn from this arena have not yet
// been released back. Zero after a full drain; a positive residue is a leak
// (a packet abandoned without PutPacket). Batch headers and clones are not
// tracked — the audit follows buffer ownership, which is what leaks hurt.
func (a *Arena) Outstanding() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.outstanding
}

// GetBatch returns an empty batch from this arena whose Packets slice has
// at least the given capacity.
func (a *Arena) GetBatch(capacity int) *Batch {
	a.mu.Lock()
	b := a.batches.pop()
	a.mu.Unlock()
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

// PutPacket returns a packet to the arena it was drawn from; a packet that
// never came from an arena (builders, Clone) is left to the garbage
// collector. The caller must not touch the packet afterwards. Double release
// panics (see the ownership rules above); buffers aliased by a shallow clone
// are dropped rather than recycled.
func PutPacket(p *Packet) {
	if p != nil {
		putRun([]*Packet{p})
	}
}

// PutPackets is PutPacket for every packet of pkts, each back to its own
// arena, taking one lock per run of consecutive same-arena packets.
func PutPackets(pkts []*Packet) {
	for run := pkts; len(run) > 0; {
		n := sameArena(run)
		putRun(run[:n])
		run = run[n:]
	}
}

// sameArena is the length of pkts' leading run of packets from one arena.
func sameArena(pkts []*Packet) int {
	n := 1
	for n < len(pkts) && pkts[n].arena == pkts[0].arena {
		n++
	}
	return n
}

// putRun releases packets that all belong to one arena (run[0]'s), taking
// its lock once for the run.
func putRun(run []*Packet) {
	poison := poisonPut.Load()
	for _, p := range run {
		if p.pooled {
			panic("netpkt: double release of Packet (already in pool)")
		}
		p.pooled = true
		if p.shared {
			// A shallow clone aliases these bytes (or this is the clone);
			// recycling them would hand live data to an unrelated GetPacket.
			p.Data = nil
		} else if poison {
			for i := range p.Data {
				p.Data[i] = PoisonByte
			}
		}
	}
	a := run[0].arena
	if a == nil {
		return
	}
	a.mu.Lock()
	for _, p := range run {
		switch {
		case !p.counted: // a shallow clone: ShallowClone drew it from headers
			a.headers.push(p)
		case p.shared: // drawn with a buffer some clone still reads
			a.outstanding--
		default:
			a.outstanding--
			a.packets.push(p)
		}
		p.counted = false
	}
	a.mu.Unlock()
}

// PutBatch returns the batch header (not its packets) to its arena; a
// header no arena handed out is left to the garbage collector. Use
// Batch.Release to return both. Double release panics.
func PutBatch(b *Batch) {
	if b == nil {
		return
	}
	if b.pooled {
		panic("netpkt: double release of Batch (already in pool)")
	}
	clear(b.Packets) // drop refs so pooled headers don't pin packets
	b.Packets = b.Packets[:0]
	b.ID, b.Branch, b.Origin = 0, 0, nil
	b.pooled = true
	if a := b.arena; a != nil {
		a.mu.Lock()
		a.batches.push(b)
		a.mu.Unlock()
	}
}

// Release returns the batch and every packet it holds to their arenas
// (PutPackets, then the header). It is the sink-side counterpart of
// ClonePooled: whoever consumes a pooled batch calls Release exactly once,
// after which neither the batch nor its packets may be used.
func (b *Batch) Release() {
	PutPackets(b.Packets)
	PutBatch(b)
}
