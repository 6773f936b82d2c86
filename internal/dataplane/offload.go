package dataplane

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
)

// OffloadConfig names the platform the emulated GPU device backend charges.
// The pool runs one device per Platform.GPUs (at least one), a lane window
// of 4 in-flight submissions per element, launch aggregation of up to 8
// submissions, and device-resident segment fusion, all priced by the
// default cost table. A nil pointer in Config selects the default platform.
type OffloadConfig struct {
	// Platform supplies the device count and the transfer/launch/kernel
	// latency parameters (nil = hetsim.DefaultPlatform, the platform every
	// command deploys against). It must be the platform the Assignment was
	// allocated against, so the dataplane charges the same costs the
	// partitioner optimized. Only the repo benchmark sets it.
	Platform *hetsim.Platform

	// Test switches; zero selects the default. maxOutstanding bounds each
	// element's in-flight submissions (4); it is also the capacity of the
	// lane's completion channel, which lets device workers deliver
	// completions without ever blocking on a slow consumer. aggregateLimit
	// is the most same-kind submissions folded into one kernel launch (8):
	// an aggregated group pays the launch and PCIe round-trip latency once,
	// with transfer bytes summed — the kernel-launch batching of §III-B.
	// disableFusion makes every ModeGPU element submit individually and pay
	// its own H2D/D2H round trip; it is the fusion differential's unfused
	// reference.
	maxOutstanding int
	aggregateLimit int
	disableFusion  bool
}

// OffloadStats counts the device backend's activity with atomics (safe to
// read live). Latency fields are modeled nanoseconds from the shared
// hetsim.CostModel, not wall time.
type OffloadStats struct {
	// OffloadedBatches counts batches executed through a device (ModeGPU
	// and ModeSplit both); SplitBatches counts the ModeSplit subset.
	OffloadedBatches atomic.Uint64
	SplitBatches     atomic.Uint64
	// KernelLaunches counts aggregated launch groups — with aggregation
	// this is <= OffloadedBatches; the gap is launches saved by batching.
	KernelLaunches atomic.Uint64
	// H2DBytes/D2HBytes are live payload bytes crossing the PCIe bus.
	H2DBytes atomic.Uint64
	D2HBytes atomic.Uint64
	// H2DTransfers/D2HTransfers count logical PCIe copy operations (one
	// per batch crossing the boundary in each direction). A fused segment
	// pays exactly one of each per batch regardless of its length — the
	// gap to the unfused per-element count is what TransfersSaved records.
	H2DTransfers atomic.Uint64
	D2HTransfers atomic.Uint64
	// GPUBusyNs is modeled device occupancy (launch + context switch +
	// kernel + transfers, serialized); SplitCPUNs is the modeled CPU half
	// of splits.
	GPUBusyNs  atomic.Uint64
	SplitCPUNs atomic.Uint64
	// FusedSegments counts multi-element segment submissions;
	// TransfersSaved counts the H2D+D2H copies residency elided (two per
	// interior hop actually executed). OverlapNs is the modeled H2D time
	// the double-buffered pipeline hides behind the previous launch
	// group's kernel execution — effective device occupancy is
	// GPUBusyNs - OverlapNs.
	FusedSegments  atomic.Uint64
	TransfersSaved atomic.Uint64
	OverlapNs      atomic.Uint64
	// CompiledBatches counts batches executed through a compiled CPU
	// stage-loop (see compile.go); CompiledHopsSaved counts the
	// goroutine+channel handoffs it elided (interior hops actually
	// executed), with observability on or off.
	CompiledBatches   atomic.Uint64
	CompiledHopsSaved atomic.Uint64
	// Swaps counts Apply calls that published a new placement epoch.
	Swaps atomic.Uint64
}

// DeviceSnapshot is one emulated device's activity in a Report. Idle
// devices (zero batches) are omitted from snapshots so CPU-only and
// lightly-loaded runs don't pollute scrapes with zero-value series.
type DeviceSnapshot struct {
	Name    string
	Batches uint64
	BusyNs  uint64
}

// OffloadSnapshot is the plain-value copy of OffloadStats in a Report.
type OffloadSnapshot struct {
	OffloadedBatches, SplitBatches, KernelLaunches uint64
	H2DBytes, D2HBytes                             uint64
	H2DTransfers, D2HTransfers                     uint64
	GPUBusyNs, SplitCPUNs                          uint64
	FusedSegments, TransfersSaved, OverlapNs       uint64
	CompiledBatches, CompiledHopsSaved             uint64
	Swaps                                          uint64
	// Epoch is the placement epoch current at snapshot time.
	Epoch uint64
	// Devices is the emulated device count.
	Devices int
	// PerDevice lists the devices that processed at least one batch.
	PerDevice []DeviceSnapshot
}

// segStat is one chain member's share of a fused segment execution,
// recorded by the device worker and booked by the head's goroutine when the
// submission completes (deliverFused).
type segStat struct {
	startNs, endNs int64 // Pipeline.now around the member, observed batches only
	liveIn         int
	liveOut        int
}

// workItem is one batch submitted to a device. The submitting node
// goroutine owns it before submit and after it reappears on the lane's
// completion channel; the device worker owns it in between.
type workItem struct {
	lane *offloadLane
	seq  uint64
	el   element.Element
	kind string
	b    *netpkt.Batch
	// id is b.ID at submission: an element may recycle the header it was
	// handed (core.XORMerge does) before the head books the completed item.
	id   uint64
	live int
	mode hetsim.Mode
	frac float64
	// plan is the fused chain to execute (nil for single-element items).
	// It is the plan of the epoch the item was submitted under, so the work
	// is booked against that epoch even when a swap lands mid-flight.
	plan *segmentPlan
	// Results, filled by the worker before completion. startNs/endNs are
	// Pipeline.now around the element, read for observed batches only.
	outs           []*netpkt.Batch
	err            error
	startNs, endNs int64
	// Fused results: per-member accounting, how many members executed
	// before the chain died (== len(plan.els) when it didn't), and the final
	// output batch (nil when it died).
	stats    []segStat
	executed int
	final    *netpkt.Batch
}

// device is one emulated GPU: a FIFO submission queue drained by a single
// worker goroutine, so kernels on one device serialize exactly like the
// simulator's device resource.
type device struct {
	name string
	q    chan *workItem
	// host invokes the element kernels in-process; per-device because the
	// backend scratch is single-goroutine state.
	host *element.HostBackend
	// batches/busyNs are this device's share of the pool counters (atomics
	// so Snapshot can read them live; written only by the worker).
	batches atomic.Uint64
	busyNs  atomic.Uint64
	// prevKernNs is the kernel-execution time of the worker's previous
	// launch group — the budget the next group's H2D copy can hide behind
	// in the double-buffered pipeline. Worker-goroutine local.
	prevKernNs float64
}

// offloadLane is one element's private path to its device: it restores
// submission order on the completion side. Device workers complete items
// (possibly from aggregated groups) and the lane releases them strictly in
// submission order through a CompletionQueue, with split batches joining
// when both halves have completed. comp's capacity equals the element's
// MaxOutstanding window, so delivery never blocks the device worker.
type offloadLane struct {
	node element.NodeID
	dev  *device
	comp chan *workItem

	mu    sync.Mutex
	cq    *netpkt.CompletionQueue
	items map[uint64]*workItem
	// sentinels are reusable per-slot ID carriers for cq.Submit (the queue
	// keys on Batch.ID; real batch IDs repeat across lanes and are not
	// dense, so the lane numbers its own submissions).
	sentinels []netpkt.Batch
	nextSeq   uint64
	// free holds delivered items for the next submission. Only the
	// submitting node goroutine touches it; MaxOutstanding bounds it.
	free []*workItem
}

// submit registers the item under the next lane-local sequence number and
// enqueues it on the device. parts is 2 for splits: the worker completes
// the CPU half and the GPU half separately and the completion queue joins
// them. Returns false when the context was cancelled before the device
// accepted the item.
func (l *offloadLane) submit(ctx context.Context, it *workItem) bool {
	l.mu.Lock()
	it.seq = l.nextSeq
	l.nextSeq++
	parts := 1
	if it.mode == hetsim.ModeSplit {
		parts = 2
	}
	slot := &l.sentinels[int(it.seq)%len(l.sentinels)]
	slot.ID = it.seq
	l.items[it.seq] = it
	l.cq.Submit(slot, parts)
	l.mu.Unlock()
	select {
	case l.dev.q <- it:
		return true
	case <-ctx.Done():
		return false
	}
}

// complete marks one part of a submission done and forwards every item the
// completion queue releases, in order: the lane's one device worker is its
// only caller. The forward to comp never blocks because in-flight items per
// lane are bounded by MaxOutstanding == cap(comp); it runs outside the lock
// all the same.
func (l *offloadLane) complete(seq uint64) {
	l.mu.Lock()
	l.cq.Complete(seq)
	for s := l.cq.Pop(); s != nil; s = l.cq.Pop() {
		it := l.items[s.ID]
		delete(l.items, s.ID)
		l.mu.Unlock()
		l.comp <- it
		l.mu.Lock()
	}
	l.mu.Unlock()
}

// devicePool owns the emulated devices and the shared cost model.
type devicePool struct {
	p              *Pipeline
	cm             *hetsim.CostModel
	maxOutstanding int
	aggLimit       int
	// fuse enables device-resident segment fusion (on unless the
	// disableFusion test switch is set).
	fuse bool
	devs []*device
	wg   sync.WaitGroup
}

// newDevicePool resolves the offload configuration. The pool always exists
// (CPU-only pipelines just never submit to it); workers start with the
// pipeline.
func newDevicePool(p *Pipeline, oc *OffloadConfig) *devicePool {
	var c OffloadConfig
	if oc != nil {
		c = *oc
	}
	plat := hetsim.DefaultPlatform()
	if c.Platform != nil {
		plat = *c.Platform
	}
	if c.maxOutstanding <= 0 {
		c.maxOutstanding = 4
	}
	if c.aggregateLimit <= 0 {
		c.aggregateLimit = 8
	}
	dp := &devicePool{
		p:              p,
		cm:             hetsim.NewCostModel(plat, nil),
		maxOutstanding: c.maxOutstanding,
		aggLimit:       c.aggregateLimit,
		fuse:           !c.disableFusion,
	}
	for i := 0; i < max(plat.GPUs, 1); i++ {
		dp.devs = append(dp.devs, &device{
			name: fmt.Sprintf("gpu%d", i),
			q:    make(chan *workItem, p.cfg.QueueDepth),
			host: element.NewHostBackend(),
		})
	}
	return dp
}

// newLane builds an element's lane to its pinned device.
func (dp *devicePool) newLane(node element.NodeID, dev int) *offloadLane {
	return &offloadLane{
		node:      node,
		dev:       dp.devs[dev%len(dp.devs)],
		comp:      make(chan *workItem, dp.maxOutstanding),
		cq:        netpkt.NewCompletionQueue(0),
		items:     make(map[uint64]*workItem, dp.maxOutstanding),
		sentinels: make([]netpkt.Batch, 2*dp.maxOutstanding),
	}
}

// start launches one worker per device.
func (dp *devicePool) start() {
	for _, d := range dp.devs {
		dp.wg.Add(1)
		go dp.runDevice(d)
	}
}

// stop closes the submission queues and waits for the workers to drain.
// Call only after every submitting goroutine has exited.
func (dp *devicePool) stop() {
	for _, d := range dp.devs {
		close(d.q)
	}
	dp.wg.Wait()
}

// runDevice drains one device's submission queue, aggregating runs of
// consecutive same-kind submissions into single kernel launches. FIFO is
// preserved: a different-kind item ends the current group and is carried
// into the next one, never reordered past it.
func (dp *devicePool) runDevice(d *device) {
	defer dp.wg.Done()
	group := make([]*workItem, 0, dp.aggLimit)
	var carry *workItem
	closed := false
	for !closed || carry != nil {
		group = group[:0]
		if carry != nil {
			group = append(group, carry)
			carry = nil
		} else {
			it, ok := <-d.q
			if !ok {
				closed = true
				continue
			}
			group = append(group, it)
		}
		// Opportunistic aggregation: take whatever same-kind items are
		// already queued, without waiting for more.
	agg:
		for len(group) < dp.aggLimit {
			select {
			case it, ok := <-d.q:
				if !ok {
					closed = true
					break agg
				}
				if it.kind != group[0].kind {
					carry = it
					break agg
				}
				group = append(group, it)
			default:
				break agg
			}
		}
		dp.executeGroup(d, group)
	}
}

// executeGroup runs one aggregated launch: every item's element is executed
// functionally exactly once (splits split in the cost accounting only —
// elements are stateful and single-threaded by contract, and this is also
// what the hetsim simulator models), while the modeled device time charges
// one launch and one PCIe round-trip for the whole group. Fused segment
// items chain their member kernels device-side (executeFused), so the whole
// chain rides the group's single H2D/D2H pair.
func (dp *devicePool) executeGroup(d *device, group []*workItem) {
	st := &dp.p.Offload
	cm := dp.cm
	st.KernelLaunches.Add(1)
	execNs := cm.LaunchNs() + cm.CtxSwitchNs()
	h2dBytes, d2hBytes := 0, 0
	for _, it := range group {
		st.OffloadedBatches.Add(1)
		if it.plan != nil {
			execNs += dp.executeFused(d, st, it, &h2dBytes, &d2hBytes)
			continue
		}
		n := it.b.Live()
		bytes := it.b.Bytes()
		timed := dp.p.observes(it.id)
		if timed {
			it.startNs = dp.p.now()
		}
		outs := d.host.Process(it.el, it.b)
		if timed {
			it.endNs = dp.p.now()
		}
		if it.el.NumOutputs() > 0 && len(outs) != it.el.NumOutputs() {
			it.err = fmt.Errorf("dataplane: %s emitted %d outputs, declared %d",
				it.el.Name(), len(outs), it.el.NumOutputs())
		}
		it.outs = append(it.outs[:0], outs...)

		switch it.mode {
		case hetsim.ModeSplit:
			st.SplitBatches.Add(1)
			nGPU := int(it.frac*float64(n) + 0.5)
			if nGPU > n {
				nGPU = n
			}
			bGPU := int(it.frac * float64(bytes))
			cpuNs := cm.CPUServiceNs(it.kind, n-nGPU, bytes-bGPU, 0)
			st.SplitCPUNs.Add(uint64(cpuNs))
			execNs += cm.KernelNs(it.kind, nGPU, bGPU, 0)
			h2dBytes += bGPU
			d2hBytes += bGPU
			st.H2DTransfers.Add(1)
			st.D2HTransfers.Add(1)
			// Two-part completion: the CPU half completes immediately
			// (it ran inline in modeled terms), the GPU half below.
			it.lane.complete(it.seq)
			it.lane.complete(it.seq)
		default: // ModeGPU
			execNs += cm.KernelNs(it.kind, n, bytes, 0)
			h2dBytes += bytes
			d2hBytes += bytes
			st.H2DTransfers.Add(1)
			st.D2HTransfers.Add(1)
			it.lane.complete(it.seq)
		}
	}
	h2dNs := cm.H2DNs(h2dBytes)
	gpuNs := execNs + h2dNs + cm.D2HNs(d2hBytes)
	// Double-buffered transfer pipelining: with a submission window deeper
	// than one buffer, this group's H2D copy streams in while the previous
	// group's kernels still execute, so up to that kernel budget of copy
	// time is hidden. GPUBusyNs stays the serialized sum (deterministic and
	// comparable across configurations); effective device occupancy is
	// GPUBusyNs - OverlapNs.
	if dp.maxOutstanding > 1 {
		hidden := h2dNs
		if d.prevKernNs < hidden {
			hidden = d.prevKernNs
		}
		st.OverlapNs.Add(uint64(hidden))
	}
	d.prevKernNs = execNs
	st.GPUBusyNs.Add(uint64(gpuNs))
	st.H2DBytes.Add(uint64(h2dBytes))
	st.D2HBytes.Add(uint64(d2hBytes))
	d.batches.Add(uint64(len(group)))
	d.busyNs.Add(uint64(gpuNs))
}

// executeFused runs one fused segment as a single device-resident
// submission: the member kernels chain on the batch in place, the group's
// H2D charges the segment-entry bytes and its D2H the segment-exit bytes,
// and the interior hops cost nothing on the bus — the saving TransfersSaved
// records. Per-member live counts and, for an observed batch, wall time
// land in it.stats for the head's goroutine to book. Returns the chained
// kernel ns (the caller owns the launch and transfer terms).
func (dp *devicePool) executeFused(d *device, st *OffloadStats, it *workItem, h2dBytes, d2hBytes *int) float64 {
	cm := dp.cm
	plan := it.plan
	it.stats = slices.Grow(it.stats[:0], len(plan.els))[:len(plan.els)]
	clear(it.stats)
	kern := 0.0
	curN, curBytes := it.b.Live(), it.b.Bytes()
	*h2dBytes += curBytes
	st.H2DTransfers.Add(1)
	timed := dp.p.observes(it.id)
	var last int64
	if timed {
		last = dp.p.now()
	}
	executed, final, err := d.host.ProcessSegment(plan.els, it.b, func(i int, out *netpkt.Batch) {
		ms := &it.stats[i]
		if timed {
			ms.startNs, ms.endNs = last, dp.p.now()
			last = ms.endNs
		}
		ms.liveIn = curN
		kern += cm.KernelNs(plan.kinds[i], curN, curBytes, 0)
		if out != nil {
			ms.liveOut = out.Live()
			curBytes = out.Bytes()
		} else {
			curBytes = 0
		}
		curN = ms.liveOut
	})
	it.executed, it.final, it.err = executed, final, err
	if final != nil {
		*d2hBytes += curBytes
		st.D2HTransfers.Add(1)
	}
	st.FusedSegments.Add(1)
	st.TransfersSaved.Add(uint64(2 * (executed - 1)))
	it.lane.complete(it.seq)
	return kern
}

// snapshotOffload copies the offload counters into a report value. Every
// OffloadStats field has a snapshot counterpart (TestOffloadSnapshotComplete
// audits the correspondence by reflection); idle devices are skipped from
// PerDevice so they don't emit zero-value series.
func (p *Pipeline) snapshotOffload() OffloadSnapshot {
	st := &p.Offload
	o := OffloadSnapshot{
		OffloadedBatches:  st.OffloadedBatches.Load(),
		SplitBatches:      st.SplitBatches.Load(),
		KernelLaunches:    st.KernelLaunches.Load(),
		H2DBytes:          st.H2DBytes.Load(),
		D2HBytes:          st.D2HBytes.Load(),
		H2DTransfers:      st.H2DTransfers.Load(),
		D2HTransfers:      st.D2HTransfers.Load(),
		GPUBusyNs:         st.GPUBusyNs.Load(),
		SplitCPUNs:        st.SplitCPUNs.Load(),
		FusedSegments:     st.FusedSegments.Load(),
		TransfersSaved:    st.TransfersSaved.Load(),
		OverlapNs:         st.OverlapNs.Load(),
		CompiledBatches:   st.CompiledBatches.Load(),
		CompiledHopsSaved: st.CompiledHopsSaved.Load(),
		Swaps:             st.Swaps.Load(),
		Epoch:             p.placements.Load().epoch,
		Devices:           len(p.pool.devs),
	}
	for _, d := range p.pool.devs {
		if b := d.batches.Load(); b > 0 {
			o.PerDevice = append(o.PerDevice, DeviceSnapshot{
				Name: d.name, Batches: b, BusyNs: d.busyNs.Load(),
			})
		}
	}
	return o
}
