package dataplane

import (
	"context"
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// nodeRunner is one element's scheduling state: the placement-aware loop
// that routes each batch either inline through the host backend (ModeCPU)
// or asynchronously through the element's offload lane (ModeGPU/ModeSplit).
// All fields are owned by the element's goroutine.
//
// Ordering invariant: an element's batches leave the runner in arrival
// order regardless of placement. Inline batches forward synchronously;
// offloaded batches forward in submission order (the lane's completion
// queue restores it), and a placement change flushes every in-flight
// offload before the first batch of the new epoch executes — so a CPU
// batch can never overtake a still-in-flight GPU batch, and no batch
// executes under two placements within one epoch.
type nodeRunner struct {
	p       *Pipeline
	id      element.NodeID
	el      element.Element
	kind    string
	isSink  bool
	inbox   chan stageMsg
	sinkOut chan *netpkt.Batch
	succ    [][]element.NodeID
	// host is this goroutine's CPU backend (SingleOut fast path + scratch).
	host *element.HostBackend

	m       *nodeMetrics
	edgeCtr [][]*stats.Counter

	// epoch is the placement epoch of the last handled batch; lane is the
	// offload lane, created on first offload; outstanding counts in-flight
	// submissions not yet forwarded downstream.
	epoch       uint64
	lane        *offloadLane
	outstanding int
}

// run is the element goroutine's main loop. With nothing in flight it is
// the plain blocking receive of the CPU-only dataplane — no select, no
// timer, nothing on the zero-allocation hot path. Only while offloads are
// outstanding does it multiplex the inbox against the completion channel.
func (nr *nodeRunner) run(ctx context.Context) {
	for {
		if nr.outstanding == 0 {
			msg, ok := <-nr.inbox
			if !ok {
				return
			}
			if !nr.handle(ctx, msg) {
				return
			}
			continue
		}
		select {
		case msg, ok := <-nr.inbox:
			if !ok {
				nr.flushLane(ctx)
				return
			}
			if !nr.handle(ctx, msg) {
				return
			}
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// handle routes one message according to the current placement table: a
// fence is passed on (compile.go), a batch executes under the current
// placement — alone, or as the whole segment this node heads.
func (nr *nodeRunner) handle(ctx context.Context, msg stageMsg) bool {
	tbl := nr.p.placements.Load()
	if tbl.epoch != nr.epoch {
		// Epoch boundary: drain the old placement's in-flight work before
		// executing anything under the new one, so this node's own stale
		// offloads forward first and arrival order is preserved. A head
		// entering a multi-element segment additionally fences its chain
		// (compile.go) before executing any member itself.
		if !nr.flushLane(ctx) {
			return false
		}
		nr.epoch = tbl.epoch
		if !nr.fenceSegment(ctx, tbl) {
			return false
		}
	}
	if msg.fence != nil {
		return nr.passFence(ctx, msg.fence)
	}
	pl := tbl.nodes[nr.id]
	// Non-head members keep the single-element paths below for
	// epoch-transition stragglers.
	plan := tbl.headed(nr.id)
	// The ID is read before the element runs: it may recycle the header.
	id := msg.b.ID
	if nr.m != nil {
		nr.p.bookArrival(nr.id, id, msg.live)
	}
	if pl.mode != hetsim.ModeCPU {
		return nr.offload(ctx, msg, pl, plan)
	}
	timed := nr.p.observes(id)
	if plan != nil {
		return nr.runCompiled(ctx, msg, plan, timed)
	}

	// Inline host-CPU path (the original dataplane fast path).
	var t0 int64
	if timed {
		t0 = nr.p.now()
	}
	outs := nr.host.Process(nr.el, msg.b)
	if timed {
		nr.p.bookTime(nr.id, id, msg.live, t0, nr.p.now())
	}
	return nr.forward(ctx, msg.b, msg.live, outs)
}

// offload submits one batch to the element's lane, first making room in
// the outstanding window by delivering completed work. A segment head
// submits its whole fused chain (plan) as one item; interior members
// receiving a batch (epoch-transition stragglers) submit themselves singly.
func (nr *nodeRunner) offload(ctx context.Context, msg stageMsg, pl nodePlacement, plan *segmentPlan) bool {
	if nr.lane == nil {
		nr.lane = nr.p.pool.newLane(nr.id, pl.dev)
	}
	for nr.outstanding >= nr.p.pool.maxOutstanding {
		select {
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return false
			}
		case <-ctx.Done():
			return false
		}
	}
	var it *workItem
	if n := len(nr.lane.free); n > 0 {
		it, nr.lane.free = nr.lane.free[n-1], nr.lane.free[:n-1]
	} else {
		it = new(workItem)
	}
	*it = workItem{
		lane: nr.lane, el: nr.el, kind: nr.kind,
		b: msg.b, id: msg.b.ID, live: msg.live, mode: pl.mode, frac: pl.frac, plan: plan,
		outs: it.outs[:0], stats: it.stats[:0],
	}
	if plan != nil {
		it.kind = plan.sig
	}
	nr.outstanding++
	return nr.lane.submit(ctx, it)
}

// deliver forwards one completed offload downstream, in lane release order,
// and puts the item back on its lane for the next submission.
func (nr *nodeRunner) deliver(ctx context.Context, it *workItem) bool {
	ok := nr.forwardItem(ctx, it)
	nr.lane.free = append(nr.lane.free, it)
	return ok
}

// forwardItem books and forwards one completed offload, booking the
// interval the device worker clocked if the batch is observed.
func (nr *nodeRunner) forwardItem(ctx context.Context, it *workItem) bool {
	if it.err != nil {
		nr.p.fail(it.err)
		return false
	}
	if it.plan != nil {
		return nr.deliverFused(ctx, it)
	}
	if nr.p.observes(it.id) {
		nr.p.bookTime(nr.id, it.id, it.live, it.startNs, it.endNs)
	}
	return nr.forward(ctx, it.b, it.live, it.outs)
}

// deliverFused books a completed fused submission — every executed member's
// share, from the per-member stats the device worker recorded — and
// forwards the chain's output to the tail's successors. No member goroutine
// sees the batch.
func (nr *nodeRunner) deliverFused(ctx context.Context, it *workItem) bool {
	if nr.m != nil {
		timed := nr.p.observes(it.id)
		for i, ms := range it.stats[:it.executed] {
			nr.p.book(it.plan, i, it.id, ms.liveIn, ms.liveOut, ms.startNs, ms.endNs, timed)
		}
	}
	return nr.p.forwardTail(ctx, it.plan, it.final, it.stats[it.executed-1].liveOut)
}

// bookArrival books a batch reaching node id: the exact counters, paid on
// every batch (Metrics on).
func (p *Pipeline) bookArrival(id element.NodeID, batch uint64, live int) {
	m := &p.metrics[id]
	m.batches.Inc()
	m.pktsIn.Add(uint64(live))
	if p.flElems != nil {
		p.flElems[id].Observe(batch)
	}
}

// bookTime books the interval node id spent processing an observed batch:
// the processing-time histogram with its packet denominator, and the same
// interval as the flight lane's busy time and span.
func (p *Pipeline) bookTime(id element.NodeID, batch uint64, live int, startNs, endNs int64) {
	m := &p.metrics[id]
	m.proc.Add(float64(endNs - startNs))
	m.procPkts.Add(uint64(live))
	if p.flElems != nil {
		fl := p.flElems[id]
		fl.AddBusy(endNs - startNs)
		fl.Span(batch, live, startNs, endNs)
	}
}

// book records member i's share of one batch a segment executor ran through
// plan: what the member's own goroutine would have booked had it executed
// the element itself. The head's entry (batch and packet-in counters) is
// booked before execution by handle, so only members behind it book theirs
// here. Called from the head's goroutine: nodeMetrics fields are atomics,
// flight lanes take concurrent writers. startNs/endNs are meaningful only
// when timed; p.metrics is non-nil (only a Metrics pipeline books).
func (p *Pipeline) book(plan *segmentPlan, i int, batch uint64, liveIn, liveOut int, startNs, endNs int64, timed bool) {
	id := plan.nodes[i]
	if i > 0 {
		p.bookArrival(id, batch, liveIn)
	}
	if timed {
		p.bookTime(id, batch, liveIn, startNs, endNs)
	}
	m := &p.metrics[id]
	m.pktsOut.Add(uint64(liveOut))
	if liveOut < liveIn {
		m.drops.Add(uint64(liveIn - liveOut))
	}
	// One port per member; only the tail may fan it out.
	for _, c := range p.edgeOut[id][0] {
		c.Add(uint64(liveOut))
	}
}

// forwardTail is a segment's one send: the chain's final batch goes
// straight to the tail's successors, with any send-wait booked where the
// tail's own goroutine would have booked it. final is nil when the chain
// died, exactly where the unfused pipeline would have stopped forwarding.
func (p *Pipeline) forwardTail(ctx context.Context, plan *segmentPlan, final *netpkt.Batch, live int) bool {
	if final == nil {
		return true
	}
	var m *nodeMetrics
	if p.metrics != nil {
		m = &p.metrics[plan.nodes[len(plan.nodes)-1]]
	}
	for _, to := range plan.tailSucc {
		if !sendTimed(ctx, m, p.inbox[to], stageMsg{b: final, live: live}, final.ID) {
			return false
		}
	}
	return true
}

// flushLane drains every in-flight offload — the epoch-swap barrier, a
// member's answer to a fence, and the end-of-input drain.
func (nr *nodeRunner) flushLane(ctx context.Context) bool {
	for nr.outstanding > 0 {
		select {
		case it := <-nr.lane.comp:
			nr.outstanding--
			if !nr.deliver(ctx, it) {
				return false
			}
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// forward pushes an executed batch's outputs to the successors (or the
// sink collector), with the per-edge and drop accounting of the original
// inline path.
func (nr *nodeRunner) forward(ctx context.Context, b *netpkt.Batch, liveIn int, outs []*netpkt.Batch) bool {
	p := nr.p
	if nr.isSink {
		if nr.m != nil {
			live := b.Live()
			nr.m.pktsOut.Add(uint64(live))
			if live < liveIn {
				nr.m.drops.Add(uint64(liveIn - live))
			}
		}
		return sendTimed(ctx, nr.m, nr.sinkOut, b, b.ID)
	}
	if len(outs) != nr.el.NumOutputs() {
		p.fail(fmt.Errorf("dataplane: %s emitted %d outputs, declared %d",
			nr.el.Name(), len(outs), nr.el.NumOutputs()))
		return false
	}
	totalOut := 0
	for port, ob := range outs {
		if ob == nil || len(ob.Packets) == 0 {
			continue
		}
		live := 0
		if nr.m != nil {
			live = ob.Live()
			totalOut += live
			nr.m.pktsOut.Add(uint64(live))
		}
		for t, to := range nr.succ[port] {
			if nr.m != nil {
				nr.edgeCtr[port][t].Add(uint64(live))
			}
			if !sendTimed(ctx, nr.m, p.inbox[to], stageMsg{b: ob, live: live}, ob.ID) {
				return false
			}
		}
	}
	// Cloning elements emit more than they take in; clamp.
	if nr.m != nil && liveIn > totalOut {
		nr.m.drops.Add(uint64(liveIn - totalOut))
	}
	return true
}
