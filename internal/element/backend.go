package element

import (
	"fmt"

	"nfcompass/internal/netpkt"
)

// Backend is the compute-backend hook of the execution contract. An
// execution engine routes every Process invocation through a Backend, so
// the same element graph can run on different compute substrates — the
// native host CPU, an emulated (or, one day, real) GPU device, a remote
// accelerator — without the elements knowing. Implementations must
// preserve Element semantics exactly: each batch is processed once, and
// one element's batches are processed in submission order (elements are
// stateful and single-threaded by contract).
//
// Backend is the synchronous invocation hook; asynchrony (submission
// queues, completion-queue joins, placement decisions) is the execution
// engine's job, layered above this interface. See
// internal/dataplane's placement-aware scheduler for the engine that
// dispatches between a host backend and emulated GPU devices according to
// a hetsim.Assignment.
type Backend interface {
	// Name identifies the backend ("cpu", "gpu0", ...).
	Name() string
	// Process executes el on b exactly as el.Process would. The returned
	// slice is only valid until the next Process call on this backend
	// (implementations may reuse it); callers must consume it
	// immediately.
	Process(el Element, b *netpkt.Batch) []*netpkt.Batch
}

// HostBackend executes elements in-process on the caller's goroutine —
// the native CPU path every engine starts from. One-output elements
// implementing SingleOut skip the per-call output-slice allocation: the
// result lands in a backend-local scratch array, which is what keeps a
// linear chain at zero allocations per batch in steady state.
//
// A HostBackend is single-goroutine state (the scratch array is reused
// across calls); give each executing goroutine its own instance.
type HostBackend struct {
	scratch [1]*netpkt.Batch
}

// NewHostBackend returns a host-CPU backend for one executing goroutine.
func NewHostBackend() *HostBackend { return &HostBackend{} }

// Name implements Backend.
func (hb *HostBackend) Name() string { return "cpu" }

// Process implements Backend.
func (hb *HostBackend) Process(el Element, b *netpkt.Batch) []*netpkt.Batch {
	if s, ok := el.(SingleOut); ok && el.NumOutputs() == 1 {
		hb.scratch[0] = s.ProcessSingle(b)
		return hb.scratch[:]
	}
	return el.Process(b)
}

// ProcessSegment is the host side of device-resident segment fusion: it
// executes a chain of one-output elements as a single submission, running
// els[0] → els[1] → … on b and feeding each element's single output to the
// next without the batch leaving the backend. step, when
// non-nil, is called after each element with its index and output batch —
// the hook engines use for per-element timing and live-count accounting.
// The chain stops early when an element emits no batch (nil, or one with
// no packet slots — the same condition under which an engine would not
// forward it); executed is the number of elements that ran and final is the
// last output, nil when the chain died. Every element in els must declare
// exactly one output; a runtime contract violation aborts with an error
// after returning the segment's working set to the arena (the caller handed
// the batch over exclusively, so nobody else can).
func (hb *HostBackend) ProcessSegment(els []Element, b *netpkt.Batch, step func(i int, out *netpkt.Batch)) (executed int, final *netpkt.Batch, err error) {
	cur := b
	for i, el := range els {
		outs := hb.Process(el, cur)
		executed = i + 1
		if len(outs) != 1 {
			releaseAborted(cur, outs)
			return executed, nil, fmt.Errorf("element: segment member %s emitted %d outputs, declared %d",
				el.Name(), len(outs), el.NumOutputs())
		}
		out := outs[0]
		if step != nil {
			step(i, out)
		}
		if out == nil || len(out.Packets) == 0 {
			return executed, nil, nil
		}
		cur = out
	}
	return executed, cur, nil
}

// releaseAborted drains a segment's working set after a member returned the
// wrong number of outputs. Exactly-once rule: if the element still returned
// the input batch, release that alone; otherwise release each distinct
// returned batch (the element consumed the input, so its packets live in
// the outputs, and a blind extra release of the input would double-release
// them).
func releaseAborted(cur *netpkt.Batch, outs []*netpkt.Batch) {
	for _, ob := range outs {
		if ob == cur {
			outs = nil
			break
		}
	}
	if len(outs) == 0 {
		cur.Release()
		return
	}
	for i, ob := range outs {
		if ob == nil {
			continue
		}
		dup := false
		for _, prev := range outs[:i] {
			if prev == ob {
				dup = true
				break
			}
		}
		if !dup {
			ob.Release()
		}
	}
}
