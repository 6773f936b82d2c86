package dataplane

// This file implements compiled CPU stage-loops — the host-side dual of
// device-resident segment fusion (offload.go) — and the epoch fence both
// kinds of segment share. Where the interpreted dataplane pays one
// goroutine + one channel hop per CPU element per batch, a compiled
// segment's head executes every member's Process inline on its own
// goroutine: one inbox receive, the member calls chained per batch, one
// send. The segments themselves are computed by resolvePlacements
// (placement.go) with the same structural predicate fusion uses
// (hetsim.DeviceSegments over "placed on the host CPU" instead of "placed
// on a device"), so compilation composes with GPU fusion and hot-swap:
// whatever is not device-resident and lies on a sole path collapses.
//
// One rule covers observability: whoever runs a segment books it. The head
// records every executed member's counters and, if the batch is observed
// (Pipeline.observes), its processing time and flight span (scheduler.go's
// book), and forwards the tail's output straight to the tail's successors;
// member goroutines never see the batch. They keep running for two reasons
// only: a batch already past the head when a placement swap lands (a
// straggler) still executes on its member's own goroutine, and the fence
// below needs somebody to answer it. Zero allocations in steady state with
// metrics on or off (guarded by TestCompiledHotPathAllocs).
//
// Hot-swap safety: elements are stateful and single-goroutine by contract,
// and a segment moves member execution onto the head's goroutine (or its
// device worker) and member forwarding onto the head's. On an epoch
// transition into a placement where it heads a multi-element segment, CPU
// or device, the head therefore sends a fence down the chain before
// executing anything (fenceSegment): every member finishes its backlog and
// flushes its offload lane before passing the fence on, and the tail's
// acknowledgement gives the head a happens-before edge covering all prior
// member-side state writes — and guarantees every earlier batch already
// reached the tail's successors, so direct forwarding cannot overtake
// in-flight stragglers. Fences cost one chain walk per epoch change, never
// per batch.

import (
	"context"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

// runCompiled executes one batch through the compiled CPU stage-loop this
// node heads. Called from handle with the head's entry (batch and
// packet-in counters) already booked, exactly like the plain inline path;
// timed is whether the batch is observed — one clock read before the first
// member and one after each, every member's end the next one's start.
func (nr *nodeRunner) runCompiled(ctx context.Context, msg stageMsg, plan *segmentPlan, timed bool) bool {
	p := nr.p
	live := msg.live
	var step func(int, *netpkt.Batch)
	if nr.m != nil {
		id := msg.b.ID
		var last int64
		if timed {
			last = p.now()
		}
		step = func(i int, out *netpkt.Batch) {
			now := last
			if timed {
				now = p.now()
			}
			liveOut := 0
			if out != nil {
				liveOut = out.Live()
			}
			p.book(plan, i, id, live, liveOut, last, now, timed)
			live, last = liveOut, now
		}
	}
	executed, final, err := nr.host.ProcessSegment(plan.els, msg.b, step)
	if err != nil {
		p.fail(err)
		return false
	}
	p.Offload.CompiledBatches.Add(1)
	p.Offload.CompiledHopsSaved.Add(uint64(executed - 1))
	return p.forwardTail(ctx, plan, final, live)
}

// fence is the epoch-transition message a segment head walks down its chain:
// no batch, no executed work. Each member passes it to its sole successor;
// tail closes ack.
type fence struct {
	tail element.NodeID
	ack  chan struct{}
}

// fenceSegment runs on an epoch transition, before the first batch of the
// new epoch executes. If this node heads a multi-element segment under the
// new table, it walks a fence through the chain and waits for the tail's
// acknowledgement: each member finishes every batch already queued and
// flushes its offload lane before forwarding the fence. The acknowledgement
// gives the head (a) a happens-before edge over all member element state
// written on other goroutines under earlier epochs, and (b) the guarantee
// that no earlier batch is still between the head and the tail's successors
// — so executing the members elsewhere and forwarding directly cannot race
// or reorder against in-flight stragglers. Waits only point downstream (the
// graph is a DAG), so fences cannot deadlock.
func (nr *nodeRunner) fenceSegment(ctx context.Context, tbl *placementTable) bool {
	plan := tbl.headed(nr.id)
	if plan == nil {
		return true
	}
	f := &fence{tail: plan.nodes[len(plan.nodes)-1], ack: make(chan struct{})}
	if !sendTimed(ctx, nil, nr.p.inbox[plan.nodes[1]], stageMsg{fence: f}, 0) {
		return false
	}
	select {
	case <-f.ack:
		return true
	case <-ctx.Done():
		return false
	}
}

// passFence is a chain member's side of an epoch fence. Fences arrive
// through the same inbox as batches, so the member's backlog is already
// handled; its lane is not necessarily empty, though — a straggler it
// submitted singly under the new epoch may still be in flight, and must
// reach the next member before the fence does.
func (nr *nodeRunner) passFence(ctx context.Context, f *fence) bool {
	if !nr.flushLane(ctx) {
		return false
	}
	if nr.id == f.tail {
		close(f.ack)
		return true
	}
	// A non-tail member has exactly one successor: the next member.
	return sendTimed(ctx, nil, nr.p.inbox[nr.succ[0][0]], stageMsg{fence: f}, 0)
}
