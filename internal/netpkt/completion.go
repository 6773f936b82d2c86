package netpkt

// CompletionQueue re-establishes batch order after parallel (offloaded)
// processing. It mirrors Snap's GPUCompletionQueue element, which the paper
// adopts (§IV-C-1): a batch is only released once *all* packets of that
// batch have completed, and batches are released strictly in submission
// order to preserve the packet stream order.
type CompletionQueue struct {
	next    uint64           // next batch ID to release
	pending map[uint64]entry // batches awaiting completion or order
	ready   []*Batch         // released, awaiting Pop
}

type entry struct {
	batch     *Batch
	remaining int
}

// NewCompletionQueue returns a queue expecting batch IDs starting at first.
func NewCompletionQueue(first uint64) *CompletionQueue {
	return &CompletionQueue{next: first, pending: make(map[uint64]entry)}
}

// Submit registers a batch whose packets will complete asynchronously in
// parts. parts is the number of Complete calls the batch will receive
// (e.g. one per sub-batch offloaded separately).
func (q *CompletionQueue) Submit(b *Batch, parts int) {
	if parts < 1 {
		parts = 1
	}
	q.pending[b.ID] = entry{batch: b, remaining: parts}
}

// Complete records that one part of batch id has finished processing. When
// all parts of the head-of-line batch are complete, the batch (and any
// already-complete successors) moves to the ready list.
func (q *CompletionQueue) Complete(id uint64) {
	e, ok := q.pending[id]
	if !ok {
		return
	}
	e.remaining--
	q.pending[id] = e
	q.drain()
}

// drain releases in-order fully-complete batches.
func (q *CompletionQueue) drain() {
	for {
		e, ok := q.pending[q.next]
		if !ok || e.remaining > 0 {
			return
		}
		delete(q.pending, q.next)
		q.ready = append(q.ready, e.batch)
		q.next++
	}
}

// Pop returns the next in-order completed batch, or nil if none is ready.
func (q *CompletionQueue) Pop() *Batch {
	if len(q.ready) == 0 {
		return nil
	}
	b := q.ready[0]
	q.ready = append(q.ready[:0], q.ready[1:]...) // keep the capacity
	return b
}
