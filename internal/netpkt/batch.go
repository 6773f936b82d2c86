package netpkt

// Batch is an ordered collection of packets processed together by an
// element. Batching amortizes per-packet overheads (paper §III-B-1); the
// cost of *splitting* batches at element branches is one of the aggregated
// overheads NFCompass attacks (Fig. 5).
type Batch struct {
	Packets []*Packet

	// ID identifies the original input batch this (sub-)batch derives
	// from, so the completion queue can regroup split batches.
	ID uint64

	// Branch identifies which parallel-stage branch this batch traverses
	// (set by the SFC duplicator; meaningful only between a duplicator
	// and its paired merge).
	Branch int

	// Origin is the batch the SFC duplicator fanned this branch batch out
	// from (set together with Branch, meaningful over the same span): the
	// paired merge finds the stage's original packets through it. An element
	// that emits a header of its own in place of its input builds it with
	// Derive, which carries all three identity fields.
	Origin *Batch

	// pooled marks the batch header as released (see pool.go); PutBatch
	// uses it to panic on double release.
	pooled bool
	// arena is the recycling domain this header was drawn from (nil for
	// batches built outside any arena); PutBatch routes the release there.
	arena *Arena
}

// NewBatch wraps pkts in a batch and stamps each packet's SeqInBatch.
func NewBatch(id uint64, pkts []*Packet) *Batch {
	for i, p := range pkts {
		p.SeqInBatch = i
	}
	return &Batch{Packets: pkts, ID: id}
}

// Derive returns a new batch header over pkts that stands in for b
// downstream: it regroups under b's ID and, inside a parallel stage, reaches
// the merge as b's branch would have.
func (b *Batch) Derive(pkts []*Packet) *Batch {
	return &Batch{Packets: pkts, ID: b.ID, Branch: b.Branch, Origin: b.Origin}
}

// Len returns the number of packets in the batch (including dropped ones).
func (b *Batch) Len() int { return len(b.Packets) }

// Live returns the number of not-dropped packets.
func (b *Batch) Live() int {
	n := 0
	for _, p := range b.Packets {
		if !p.Dropped {
			n++
		}
	}
	return n
}

// Bytes returns the total wire bytes of live packets.
func (b *Batch) Bytes() int {
	n := 0
	for _, p := range b.Packets {
		if !p.Dropped {
			n += len(p.Data)
		}
	}
	return n
}

// LiveBytes returns Live and Bytes from one pass over the batch, for the
// input boundaries that book both on every batch.
func (b *Batch) LiveBytes() (live, bytes int) {
	for _, p := range b.Packets {
		if !p.Dropped {
			live++
			bytes += len(p.Data)
		}
	}
	return live, bytes
}

// Clone deep-copies the batch. Parallelized SFC branches each process a
// clone of the input traffic (paper §IV-B-1: "It just creates the copy of
// network packets and distributes them").
func (b *Batch) Clone() *Batch {
	pkts := make([]*Packet, len(b.Packets))
	for i, p := range b.Packets {
		pkts[i] = p.Clone()
	}
	return b.Derive(pkts)
}

// ClonePooled is Clone backed by the arena b was drawn from (the default
// one for batches built outside any): batch header and packet storage come
// from its free stacks. The consumer of the clone calls Release exactly
// once when done with it.
func (b *Batch) ClonePooled() *Batch {
	return b.home().ClonePooled(b)
}

// ClonePooled is Batch.ClonePooled drawing the header and all packet
// storage from this arena, the packets under one lock — the per-shard
// injection path's way to keep a replica's working set inside its own
// recycling domain, whichever arena b's packets came from.
func (a *Arena) ClonePooled(b *Batch) *Batch {
	dst := a.GetBatch(len(b.Packets))
	a.mu.Lock()
	for range b.Packets {
		q := a.packets.pop()
		q.arena, q.counted = a, true // Packet.CloneInto keeps both
		dst.Packets = append(dst.Packets, q)
	}
	a.outstanding += int64(len(b.Packets))
	a.mu.Unlock()
	for i, p := range b.Packets {
		p.CloneInto(dst.Packets[i])
	}
	dst.ID, dst.Branch = b.ID, b.Branch
	return dst
}

// ShallowClone copies the batch with per-packet shallow clones: private
// annotation state, shared wire bytes. Safe to hand to processing that
// hazard analysis proves read-only on packet bytes (see Arena.shallowClone
// and the Duplicator's writer flags). Header and packet headers are pooled
// like ClonePooled's, one lock per run of same-arena packets; the consumer
// calls Release exactly once.
func (b *Batch) ShallowClone() *Batch {
	dst := b.home().GetBatch(len(b.Packets))
	for run := b.Packets; len(run) > 0; {
		n, a := sameArena(run), run[0].arena
		if a == nil {
			a = defaultArena
		}
		a.mu.Lock()
		for _, p := range run[:n] {
			dst.Packets = append(dst.Packets, a.shallowClone(p))
		}
		a.mu.Unlock()
		run = run[n:]
	}
	dst.ID, dst.Branch = b.ID, b.Branch
	return dst
}

// home is the arena b's clones are drawn from.
func (b *Batch) home() *Arena {
	if b.arena != nil {
		return b.arena
	}
	return defaultArena
}
