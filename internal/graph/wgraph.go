// Package graph implements the weighted-graph machinery behind NFCompass's
// task allocator (paper §IV-C): an undirected weighted graph whose node
// weights are per-processor execution times and whose edge weights are data
// transfer times; Dinic max-flow / min-cut; the Stone-model optimal
// two-processor assignment; a modified Kernighan–Lin (Fiduccia–Mattheyses
// style) refinement with load balancing and O(degree) trial moves; a
// METIS-like multilevel partitioner; and the paper's lightweight O(k log k)
// seed-based agglomerative clustering.
package graph

import "fmt"

// Side identifies the processor a node is assigned to.
type Side int

// Processor sides.
const (
	CPU Side = 0
	GPU Side = 1
)

// Other returns the opposite side.
func (s Side) Other() Side { return 1 - s }

// WEdge is one endpoint of an undirected weighted edge.
type WEdge struct {
	To int
	W  float64
}

// WGraph is an undirected graph with per-side node weights (execution time
// on CPU vs GPU) and edge weights (transfer time if the edge crosses the
// partition).
type WGraph struct {
	wCPU, wGPU []float64
	adj        [][]WEdge
	// Fixed pins a node to a side (e.g. non-offloadable elements pin to
	// CPU, virtual GPU instances pin to GPU); nil entry = free.
	fixed []*Side
}

// NewWGraph creates a graph with n nodes and zero weights.
func NewWGraph(n int) *WGraph {
	return &WGraph{
		wCPU:  make([]float64, n),
		wGPU:  make([]float64, n),
		adj:   make([][]WEdge, n),
		fixed: make([]*Side, n),
	}
}

// Len returns the node count.
func (g *WGraph) Len() int { return len(g.wCPU) }

// SetNodeWeight sets the execution times of node v on each side.
func (g *WGraph) SetNodeWeight(v int, cpu, gpu float64) {
	g.wCPU[v], g.wGPU[v] = cpu, gpu
}

// NodeWeight returns the execution time of v on side s.
func (g *WGraph) NodeWeight(v int, s Side) float64 {
	if s == CPU {
		return g.wCPU[v]
	}
	return g.wGPU[v]
}

// Pin forces node v to side s.
func (g *WGraph) Pin(v int, s Side) {
	side := s
	g.fixed[v] = &side
}

// Pinned returns the forced side of v, or nil.
func (g *WGraph) Pinned(v int) *Side { return g.fixed[v] }

// AddEdge adds an undirected edge with weight w (accumulating onto an
// existing edge between the same nodes).
func (g *WGraph) AddEdge(u, v int, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self edge on %d", u)
	}
	if u < 0 || v < 0 || u >= g.Len() || v >= g.Len() {
		return fmt.Errorf("graph: edge (%d,%d) out of range", u, v)
	}
	for i := range g.adj[u] {
		if g.adj[u][i].To == v {
			g.adj[u][i].W += w
			for j := range g.adj[v] {
				if g.adj[v][j].To == u {
					g.adj[v][j].W += w
				}
			}
			return nil
		}
	}
	g.adj[u] = append(g.adj[u], WEdge{To: v, W: w})
	g.adj[v] = append(g.adj[v], WEdge{To: u, W: w})
	return nil
}

// NumEdges returns the number of undirected edges.
func (g *WGraph) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n / 2
}

// Partition assigns each node a side.
type Partition []Side

// CutWeight sums the weights of edges crossing the partition.
func (g *WGraph) CutWeight(p Partition) float64 {
	cut := 0.0
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if u < e.To && p[u] != p[e.To] {
				cut += e.W
			}
		}
	}
	return cut
}

// Loads returns the total execution time assigned to each side.
func (g *WGraph) Loads(p Partition) (cpu, gpu float64) {
	for v := range p {
		if p[v] == CPU {
			cpu += g.wCPU[v]
		} else {
			gpu += g.wGPU[v]
		}
	}
	return cpu, gpu
}

// Cost is the allocator's objective: the steady-state pipeline bottleneck.
// Cross-partition transfers ride the device/PCIe side of the pipeline
// (DMA overlaps host compute), so the GPU term carries the cut weight:
//
//	Cost = max(cpuLoad, gpuLoad + cut)
//
// Minimizing it maximizes throughput while discouraging data movement —
// the paper's twin goals.
func (g *WGraph) Cost(p Partition) float64 {
	cpu, gpu := g.Loads(p)
	gpu += g.CutWeight(p)
	if cpu > gpu {
		return cpu
	}
	return gpu
}

// Feasible reports whether p honours every pin.
func (g *WGraph) Feasible(p Partition) bool {
	for v, f := range g.fixed {
		if f != nil && p[v] != *f {
			return false
		}
	}
	return true
}

// InitialPartition returns the all-CPU assignment with pins honoured.
func (g *WGraph) InitialPartition() Partition {
	p := make(Partition, g.Len())
	for v, f := range g.fixed {
		if f != nil {
			p[v] = *f
		}
	}
	return p
}
