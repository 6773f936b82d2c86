package core

import (
	"bytes"
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

// Duplicator fans a batch out to the parallel branches of a stage (paper
// §IV-B-1: "It just creates the copy of network packets and distributes
// them"). The batch it is given goes to no branch: it stays pristine and
// reaches the paired XORMerge behind every branch batch's Origin pointer, so
// the pair shares no state.
//
// The per-branch writer flags implement the optimized packet/memory
// management the paper leaves as future work: a read-only branch (RAR per
// Table III, so sharing is hazard-free by construction) gets shallow clones —
// private annotations, shared wire bytes — and only writer branches get deep
// copies. Both kinds come from the batch's arena and go back at the merge.
type Duplicator struct {
	name    string
	writers []bool // writer branches need private copies

	// CopiedBytes counts the bytes the modelled platform copies under the
	// optimized scheme (one copy per writer branch after the first, plus
	// the pristine reference when any branch writes) — the simulator's
	// MemProber input, not a count of the copies this process makes.
	CopiedBytes uint64
}

// NewDuplicator creates the fan-out element for a stage with n branches,
// conservatively treating every branch as a writer.
func NewDuplicator(name string, branches int) *Duplicator {
	writers := make([]bool, branches)
	for i := range writers {
		writers[i] = true
	}
	return NewDuplicatorProfiled(name, writers)
}

// NewDuplicatorProfiled creates the fan-out element with per-branch writer
// flags (true = the branch's NF writes packets and needs a private copy).
func NewDuplicatorProfiled(name string, writers []bool) *Duplicator {
	return &Duplicator{name: name, writers: writers}
}

// Name implements element.Element.
func (e *Duplicator) Name() string { return e.name }

// Traits implements element.Element.
func (e *Duplicator) Traits() element.Traits {
	return element.Traits{Kind: "Duplicator", Class: element.ClassShaper}
}

// NumOutputs implements element.Element.
func (e *Duplicator) NumOutputs() int { return len(e.writers) }

// Signature implements element.Element.
func (e *Duplicator) Signature() string {
	return fmt.Sprintf("Duplicator/%s/%d", e.name, len(e.writers))
}

// Process implements element.Element: it emits one pooled copy of b per
// branch — deep for writers, shallow for branches hazard analysis proved
// read-only — each pointing back at b, which the merge emits in the end.
func (e *Duplicator) Process(b *netpkt.Batch) []*netpkt.Batch {
	size := uint64(b.Bytes())
	anyWriter := e.writers[0]
	for _, w := range e.writers[1:] {
		if w {
			anyWriter = true
			e.CopiedBytes += size
		}
	}
	if anyWriter {
		e.CopiedBytes += size
	}
	out := make([]*netpkt.Batch, len(e.writers))
	for i, w := range e.writers {
		if w {
			out[i] = b.ClonePooled()
		} else {
			out[i] = b.ShallowClone()
		}
		out[i].Branch, out[i].Origin = i, b
	}
	return out
}

// MemAccesses implements hetsim.MemProber: cache lines the scheme copies.
func (e *Duplicator) MemAccesses() uint64 { return e.CopiedBytes / 64 }

// Reset implements element.Resetter.
func (e *Duplicator) Reset() { e.CopiedBytes = 0 }

// XORMerge joins the branches of a parallelized stage. It parks branch
// batches until all of one original batch's have arrived, folds their
// results into the original packets in place — each packet becomes original
// XOR (OR of per-writer-branch modifications, paper §IV-B-1) — returns
// every branch copy to its arena and emits the original batch. The result
// is what the sequential chain produces, whatever order the branches
// arrived in: a packet dropped by any branch is dropped once, under the
// lowest-numbered dropping branch's reason, and annotations merge in branch
// order (the highest-numbered branch that changed one wins).
type XORMerge struct {
	name    string
	writers []bool
	// pending parks the branch batches delivered so far, by branch index,
	// under their original batch. Only this element's goroutine touches it.
	pending map[*netpkt.Batch][]*netpkt.Batch
	free    [][]*netpkt.Batch // emptied pending vectors, for reuse
	// spent is the last consumed batch's header, pooled one consume late: the
	// engine that handed it in may still read it after the call
	// (hetsim's Execute counts its drops).
	spent *netpkt.Batch

	// Merged counts batches merged; MergeErrors length conflicts (which the
	// parallelization criteria forbid) and batches no paired duplicator made.
	Merged      uint64
	MergeErrors uint64
	// DiffedBytes counts the bytes the modelled platform XOR-diffs: writer
	// branches only (read-only copies are the original's bytes). Like
	// CopiedBytes it describes the model — here a lone writer goes undiffed.
	DiffedBytes uint64
}

// NewXORMerge creates the merge element paired with dup.
func NewXORMerge(name string, dup *Duplicator) *XORMerge {
	return &XORMerge{name: name, writers: dup.writers,
		pending: make(map[*netpkt.Batch][]*netpkt.Batch)}
}

// Name implements element.Element.
func (e *XORMerge) Name() string { return e.name }

// Traits implements element.Element.
func (e *XORMerge) Traits() element.Traits {
	return element.Traits{Kind: "XORMerge", Class: element.ClassShaper,
		ReadsHeader: true, ReadsPayload: true, WritesHeader: true, WritesPayload: true}
}

// NumOutputs implements element.Element.
func (e *XORMerge) NumOutputs() int { return 1 }

// Signature implements element.Element.
func (e *XORMerge) Signature() string { return "XORMerge/" + e.name }

// ExpectedInputs implements hetsim.Merger: the simulator synchronizes the
// ready times of all branch deliveries.
func (e *XORMerge) ExpectedInputs() int { return len(e.writers) }

// Process implements element.Element: nil until the last branch delivers.
func (e *XORMerge) Process(b *netpkt.Batch) []*netpkt.Batch {
	return []*netpkt.Batch{e.ProcessSingle(b)}
}

// ProcessSingle implements element.SingleOut.
func (e *XORMerge) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	orig := b.Origin
	if orig == nil || b.Branch < 0 || b.Branch >= len(e.writers) {
		// Not a branch batch of the paired duplicator, so no stage completes
		// around it: counted, released, nothing emitted. Offline profiling,
		// which measures each element alone, prices the merge on this path.
		e.MergeErrors++
		e.consume(b)
		return nil
	}
	parts := e.pending[orig]
	if parts == nil {
		if n := len(e.free); n > 0 {
			parts, e.free = e.free[n-1], e.free[:n-1]
		} else {
			parts = make([]*netpkt.Batch, len(e.writers))
		}
		e.pending[orig] = parts
	}
	parts[b.Branch] = b
	for _, part := range parts {
		if part == nil {
			return nil
		}
	}
	delete(e.pending, orig)
	e.mergeParts(orig, parts)
	for i, part := range parts {
		if part != b {
			part.Release()
		}
		parts[i] = nil
	}
	e.consume(b)
	e.free = append(e.free, parts)
	e.Merged++
	return orig
}

// consume releases the batch this call was handed: its packets at once, one
// arena lock per run, its header through spent.
func (e *XORMerge) consume(b *netpkt.Batch) {
	netpkt.PutPackets(b.Packets)
	clear(b.Packets)
	b.Packets = b.Packets[:0]
	netpkt.PutBatch(e.spent)
	e.spent = b
}

// mergeParts folds the branch copies (indexed by branch, same packet slots
// as orig) into orig's packets. Wire bytes are touched only when a branch
// wrote them: a lone writer's (or re-framer's) buffer is swapped into the
// original packet, two or more same-length writers are first XOR-merged
// against the still-pristine original inside the first writer's copy.
func (e *XORMerge) mergeParts(orig *netpkt.Batch, parts []*netpkt.Batch) {
	for i, op := range orig.Packets {
		for br, part := range parts {
			if !e.writers[br] && (i >= len(part.Packets) || !sameBytes(part.Packets[i].Data, op.Data)) {
				// A reader kept its alias of op (a reassembler holding the
				// segment): the bytes stay with it, op carries on with a copy.
				op.Data = append([]byte(nil), op.Data...)
				break
			}
		}
		paint, anno := op.Paint, op.UserAnno
		// acc is the first same-length writer copy (the OR of the writers'
		// modification bits once diffed); reframed the first re-framed copy.
		var acc, reframed *netpkt.Packet
		diffed, conflict := false, false
		for br, part := range parts {
			if i >= len(part.Packets) {
				continue
			}
			bp := part.Packets[i]
			if bp.Dropped {
				if !op.Dropped {
					op.Drop(bp.DropReason)
				}
				continue
			}
			sameLen := len(bp.Data) == len(op.Data)
			if sameLen && e.writers[br] {
				e.DiffedBytes += uint64(len(bp.Data))
			}
			if op.Dropped {
				// A lower branch dropped it: the sequential chain would not
				// have shown the packet to this one.
				continue
			}
			if bp.Paint != paint {
				op.Paint = bp.Paint
			}
			if bp.UserAnno != anno {
				op.UserAnno = bp.UserAnno
			}
			switch {
			case !sameLen:
				// Replicated identical NFs (the Fig. 13 evaluation shapes)
				// produce byte-identical re-framed copies; anything else
				// the orchestrator's criteria forbid.
				if reframed == nil {
					reframed = bp
				} else if !bytes.Equal(bp.Data, reframed.Data) {
					conflict = true
				}
			case !e.writers[br]: // read-only: its bytes are the original's
			case acc == nil:
				acc = bp
			default:
				if !diffed {
					xorBytes(acc.Data, op.Data)
					diffed = true
				}
				for j, c := range bp.Data {
					acc.Data[j] |= c ^ op.Data[j]
				}
			}
		}
		switch {
		case op.Dropped:
		case conflict: // fail safe by dropping
			op.Drop(e.name + "/length-conflict")
			e.MergeErrors++
		case reframed != nil:
			// Adopted wholesale: the other branches were read-only on the
			// payload by the parallelization criteria.
			op.Data, reframed.Data = reframed.Data, op.Data
			op.L3Offset, op.L4Offset = reframed.L3Offset, reframed.L4Offset
			op.L3Proto, op.L4Proto = reframed.L3Proto, reframed.L4Proto
		case acc != nil:
			if diffed {
				xorBytes(acc.Data, op.Data)
			}
			op.Data, acc.Data = acc.Data, op.Data
		}
		// Every alias of op's bytes is in parts, released before op goes on.
		op.Unshare()
	}
}

// sameBytes reports whether a and b are the same memory.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// xorBytes XORs src into dst (equal lengths).
func xorBytes(dst, src []byte) {
	for j, c := range src {
		dst[j] ^= c
	}
}

// MemAccesses implements hetsim.MemProber: cache lines the merge diffs.
func (e *XORMerge) MemAccesses() uint64 { return e.DiffedBytes / 64 }

// Reset implements element.Resetter. Batches still parked belong to stages
// that will never complete: the branch copies go back to their arenas. The
// batch they were made from stays with whoever injected it, its packets
// still marked shared, so a copy lost in flight never sees them recycled.
func (e *XORMerge) Reset() {
	for _, parts := range e.pending {
		for _, part := range parts {
			if part != nil {
				part.Release()
			}
		}
	}
	e.pending = make(map[*netpkt.Batch][]*netpkt.Batch)
	e.spent, e.Merged, e.MergeErrors, e.DiffedBytes = nil, 0, 0, 0
}
