package dataplane

import (
	"fmt"
	"strings"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
)

// nodePlacement is one element's resolved placement for one epoch: which
// backend executes it and, for splits, the δ-granular GPU share.
type nodePlacement struct {
	mode hetsim.Mode
	// frac is the GPU packet fraction for ModeSplit (0 < frac < 1).
	frac float64
	// dev is the device index the element's offload lane is pinned to.
	// Pinning is per element (not per batch) so one element's kernels all
	// queue on one device and stay in submission order. GPU elements of one
	// fused segment share the segment's device.
	dev int
	// seg is the node's segment index into placementTable.segs (-1 for
	// splits and for CPU nodes outside any compiled stage-loop); head marks
	// the segment's entry element — the node that executes or submits it.
	seg  int
	head bool
}

// String renders the placement for reports.
func (pl nodePlacement) String() string {
	switch pl.mode {
	case hetsim.ModeGPU:
		return fmt.Sprintf("gpu%d", pl.dev)
	case hetsim.ModeSplit:
		return fmt.Sprintf("split%d:%.2f", pl.dev, pl.frac)
	default:
		return "cpu"
	}
}

// segmentPlan is one epoch's multi-element execution unit: the chain of
// elements a head executes as one — a device-resident submission for GPU
// segments, a compiled stage-loop (compile.go) for CPU segments. Whoever
// executes the chain books every member's share and forwards the result
// (scheduler.go's book and forwardTail). Immutable once the table is
// published; the head's goroutine and the device worker read it
// concurrently.
type segmentPlan struct {
	nodes []element.NodeID
	els   []element.Element
	kinds []string
	// sig is the aggregation signature: consecutive device submissions with
	// equal signatures fold into one kernel launch. Singleton segments keep
	// the element kind so they aggregate with same-kind splits, exactly as
	// unfused submissions did.
	sig string
	// tailSucc is the tail element's port-0 successors, resolved at
	// table-build time so the executor can forward the segment's output
	// directly — the segment's one send — without touching the tail's
	// runner state.
	tailSucc []element.NodeID
}

// placementTable is one immutable epoch of per-node placements. The running
// pipeline holds the current table in an atomic pointer; Apply publishes a
// whole new table, never mutates one in place. A node goroutine reads the
// table once per batch, so a single batch is always executed under exactly
// one epoch's placement — the hot-swap atomicity unit.
type placementTable struct {
	epoch uint64
	nodes []nodePlacement
	segs  []segmentPlan
}

// resolvePlacements normalizes an Assignment onto the pipeline's graph for
// a new epoch. Unassigned elements run on the CPU. Endpoints (graph sources
// and sinks — the FromDevice/ToDevice boundary) are host I/O and are pinned
// to the CPU regardless of the assignment, matching the allocator's
// convention that endpoints are never offload candidates. Degenerate splits
// collapse: fraction <= 0 means CPU, >= 1 means full GPU.
//
// After modes resolve, the ModeGPU nodes are grouped into maximal
// contiguous device-resident segments (hetsim.DeviceSegments): each segment
// pins to one device — seg index modulo the pool — so the whole chain's
// kernels queue on a single device and the batch can stay resident between
// them. With fusion disabled every GPU node is its own singleton segment.
func (p *Pipeline) resolvePlacements(a hetsim.Assignment, epoch uint64) *placementTable {
	n := p.g.Len()
	t := &placementTable{epoch: epoch, nodes: make([]nodePlacement, n)}
	devs := 1
	if p.pool != nil && len(p.pool.devs) > 0 {
		devs = len(p.pool.devs)
	}
	isSource := make(map[element.NodeID]bool, 1)
	for _, s := range p.g.Sources() {
		isSource[s] = true
	}
	for i := 0; i < n; i++ {
		id := element.NodeID(i)
		t.nodes[i].seg = -1
		if isSource[id] || p.g.Node(id).NumOutputs() == 0 {
			continue // endpoints stay on the CPU (zero value)
		}
		pl := a[id]
		np := nodePlacement{mode: pl.Mode, frac: pl.GPUFraction, dev: i % devs, seg: -1}
		if np.mode == hetsim.ModeSplit {
			switch {
			case np.frac <= 0:
				np = nodePlacement{seg: -1}
			case np.frac >= 1:
				np.mode, np.frac = hetsim.ModeGPU, 0
			}
		}
		if np.mode == hetsim.ModeCPU {
			np = nodePlacement{seg: -1}
		}
		t.nodes[i] = np
	}

	onDevice := func(id element.NodeID) bool {
		return t.nodes[id].mode == hetsim.ModeGPU
	}
	segs := hetsim.DeviceSegments(p.g, onDevice)
	if p.pool != nil && !p.pool.fuse {
		// Fusion off: break every segment into singletons, keeping the
		// head-order numbering so device pinning stays comparable.
		var singles []hetsim.Segment
		for _, s := range segs {
			for _, id := range s.Nodes {
				singles = append(singles, hetsim.Segment{Nodes: []element.NodeID{id}})
			}
		}
		segs = singles
	}
	for si, s := range segs {
		p.addSegment(t, s.Nodes, si%devs)
	}

	// CPU stage-loop compilation: the host-side dual of device-segment
	// fusion. Maximal sole-path runs of ModeCPU elements (same structural
	// predicate as FusableEdges, with "on device" replaced by "on host")
	// collapse into compiled segments the head executes inline — one inbox
	// receive, member Process calls chained per batch, one send.
	// Singletons keep the plain per-goroutine path (seg stays -1), so
	// nothing changes for elements that cannot chain.
	if !p.cfg.DisableCompile {
		onCPU := func(id element.NodeID) bool {
			return t.nodes[id].mode == hetsim.ModeCPU
		}
		for _, s := range hetsim.DeviceSegments(p.g, onCPU) {
			if len(s.Nodes) > 1 {
				p.addSegment(t, s.Nodes, -1)
			}
		}
	}
	return t
}

// addSegment appends the plan for one segment to t and points its nodes at
// it. dev is the device the segment is pinned to, -1 for a compiled CPU
// stage-loop.
func (p *Pipeline) addSegment(t *placementTable, nodes []element.NodeID, dev int) {
	plan := segmentPlan{nodes: nodes}
	for pos, id := range nodes {
		el := p.g.Node(id)
		plan.els = append(plan.els, el)
		plan.kinds = append(plan.kinds, el.Traits().Kind)
		if dev >= 0 {
			t.nodes[id].dev = dev
		}
		t.nodes[id].seg = len(t.segs)
		t.nodes[id].head = pos == 0
	}
	plan.sig = strings.Join(plan.kinds, "+")
	if len(nodes) > 1 {
		// Every member of a chain has exactly one output port.
		plan.tailSucc = p.g.Successors(nodes[len(nodes)-1])[0]
	}
	t.segs = append(t.segs, plan)
}

// headed returns the multi-element segment id heads under this table — the
// chain id executes as one unit — or nil when id runs alone.
func (t *placementTable) headed(id element.NodeID) *segmentPlan {
	pl := t.nodes[id]
	if !pl.head || pl.seg < 0 || len(t.segs[pl.seg].nodes) < 2 {
		return nil
	}
	return &t.segs[pl.seg]
}

// Apply atomically swaps the pipeline's placement to a new epoch. Safe to
// call while traffic flows: each node goroutine picks up the new table at
// its next batch boundary, first draining any offloads still in flight
// under the old epoch — including fused segments, whose in-flight items
// finish executing under the plan they were submitted with — so no batch
// is ever executed under two placements and no packet is lost. nil reverts
// every element to the CPU.
func (p *Pipeline) Apply(a hetsim.Assignment) error {
	for {
		old := p.placements.Load()
		nt := p.resolvePlacements(a, old.epoch+1)
		if p.placements.CompareAndSwap(old, nt) {
			break
		}
	}
	p.Offload.Swaps.Add(1)
	return nil
}
