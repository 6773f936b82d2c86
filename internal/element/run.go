package element

import (
	"fmt"

	"nfcompass/internal/netpkt"
)

// EdgeKey identifies a graph edge for per-edge statistics.
type EdgeKey struct {
	From NodeID
	Port int
	To   NodeID
}

// RunStats aggregates execution statistics across a run: the inputs the
// runtime profiler samples (paper §IV-C-2, traffic-related statistics).
type RunStats struct {
	// NodePackets counts live packets entering each node.
	NodePackets map[NodeID]uint64
	// EdgePackets counts packets crossing each edge — the per-edge
	// traffic intensity used as graph-partition edge weights.
	EdgePackets map[EdgeKey]uint64
	// Splits counts batch-split events (an element emitted >1 non-empty
	// sub-batch), the Fig. 5 overhead driver.
	Splits uint64
	// SubBatches counts total non-empty output sub-batches emitted.
	SubBatches uint64
	// Emitted counts packets that reached a sink alive.
	Emitted uint64
	// Drops counts packets dropped, by element name.
	Drops map[string]uint64
}

func newRunStats() *RunStats {
	return &RunStats{
		NodePackets: make(map[NodeID]uint64),
		EdgePackets: make(map[EdgeKey]uint64),
		Drops:       make(map[string]uint64),
	}
}

// Executor pushes batches through an element graph in topological order,
// gathering the statistics the profiler and simulator need. It is the
// functional (correctness) execution engine; timing is the platform
// simulator's job.
type Executor struct {
	g     *Graph
	order []NodeID
	Stats *RunStats
	// Backend is the compute backend every Process call is routed
	// through (see backend.go); NewExecutor installs a HostBackend.
	Backend Backend
}

// NewExecutor validates the graph and prepares an executor running on the
// native host-CPU backend.
func NewExecutor(g *Graph) (*Executor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Executor{g: g, order: order, Stats: newRunStats(), Backend: NewHostBackend()}, nil
}

// RunBatch pushes one input batch into every source node and returns the
// batches that arrived at sink nodes, keyed by sink node id.
func (x *Executor) RunBatch(in *netpkt.Batch) (map[NodeID][]*netpkt.Batch, error) {
	pending := make(map[NodeID][]*netpkt.Batch, x.g.Len())
	for _, src := range x.g.Sources() {
		pending[src] = append(pending[src], in)
	}
	sinkOut := make(map[NodeID][]*netpkt.Batch)

	for _, id := range x.order {
		batches := pending[id]
		if len(batches) == 0 {
			continue
		}
		el := x.g.Node(id)
		succ := x.g.Successors(id)
		for _, b := range batches {
			before := countLive(b)
			x.Stats.NodePackets[id] += uint64(before)
			outs := x.Backend.Process(el, b)
			if el.NumOutputs() == 0 {
				x.Stats.Emitted += uint64(countLive(b))
				sinkOut[id] = append(sinkOut[id], b)
				continue
			}
			if len(outs) != el.NumOutputs() {
				return nil, fmt.Errorf("element: %s emitted %d outputs, declared %d",
					el.Name(), len(outs), el.NumOutputs())
			}
			nonEmpty := 0
			for port, ob := range outs {
				if ob == nil || len(ob.Packets) == 0 {
					continue
				}
				nonEmpty++
				live := countLive(ob)
				for _, to := range succ[port] {
					x.Stats.EdgePackets[EdgeKey{From: id, Port: port, To: to}] += uint64(live)
					pending[to] = append(pending[to], ob)
				}
			}
			x.Stats.SubBatches += uint64(nonEmpty)
			if nonEmpty > 1 {
				x.Stats.Splits++
			}
		}
	}

	// Account drops.
	x.accountDrops(in)
	for _, bs := range sinkOut {
		for _, b := range bs {
			x.accountDrops(b)
		}
	}
	return sinkOut, nil
}

// accountDrops tallies drop reasons; duplicates across clones are fine
// because each clone is a distinct packet object.
func (x *Executor) accountDrops(b *netpkt.Batch) {
	for _, p := range b.Packets {
		if p.Dropped && p.DropReason != "" {
			x.Stats.Drops[p.DropReason]++
			p.DropReason = "" // count once
		}
	}
}

// Reset clears run statistics and resets every stateful element.
func (x *Executor) Reset() {
	x.Stats = newRunStats()
	x.g.Reset()
}

func countLive(b *netpkt.Batch) int {
	n := 0
	for _, p := range b.Packets {
		if !p.Dropped {
			n++
		}
	}
	return n
}
