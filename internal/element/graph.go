package element

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Graph.
type NodeID int

// Edge connects an output port of one node to an input of another. Click
// inputs are unnumbered here (elements merge all inputs), which matches
// push-mode processing.
type Edge struct {
	From NodeID
	Port int // output port index on From
	To   NodeID
}

// Graph is an element configuration DAG: the unit the SFC orchestrator and
// NF synthesizer manipulate and the task allocator partitions.
type Graph struct {
	nodes []Element
	edges []Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Add inserts an element and returns its node id.
func (g *Graph) Add(e Element) NodeID {
	g.nodes = append(g.nodes, e)
	return NodeID(len(g.nodes) - 1)
}

// Connect wires output port of from to to.
func (g *Graph) Connect(from NodeID, port int, to NodeID) error {
	if int(from) >= len(g.nodes) || int(to) >= len(g.nodes) || from < 0 || to < 0 {
		return fmt.Errorf("element: connect references unknown node")
	}
	if n := g.nodes[from].NumOutputs(); port < 0 || port >= n {
		return fmt.Errorf("element: %s has %d outputs, port %d invalid",
			g.nodes[from].Name(), n, port)
	}
	g.edges = append(g.edges, Edge{From: from, Port: port, To: to})
	return nil
}

// MustConnect is Connect that panics on error, for static configurations.
func (g *Graph) MustConnect(from NodeID, port int, to NodeID) {
	if err := g.Connect(from, port, to); err != nil {
		panic(err)
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the element at id.
func (g *Graph) Node(id NodeID) Element { return g.nodes[id] }

// Reset resets every stateful element (every Resetter) in the graph, the
// step between two runs over the same element instances.
func (g *Graph) Reset() {
	for _, e := range g.nodes {
		if r, ok := e.(Resetter); ok {
			r.Reset()
		}
	}
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// Successors returns the targets of each output port of id, as a slice
// indexed by port (entries may hold several fan-out targets).
func (g *Graph) Successors(id NodeID) [][]NodeID {
	out := make([][]NodeID, g.nodes[id].NumOutputs())
	for _, e := range g.edges {
		if e.From == id {
			out[e.Port] = append(out[e.Port], e.To)
		}
	}
	return out
}

// Sources returns nodes with no incoming edges.
func (g *Graph) Sources() []NodeID {
	indeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var out []NodeID
	for i, d := range indeg {
		if d == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Sinks returns nodes with no outgoing edges.
func (g *Graph) Sinks() []NodeID {
	outdeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		outdeg[e.From]++
	}
	var out []NodeID
	for i, d := range outdeg {
		if d == 0 {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// TopoOrder returns a topological ordering, or an error if the graph has a
// cycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	queue := make([]NodeID, 0, len(g.nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	order := make([]NodeID, 0, len(g.nodes))
	for len(queue) > 0 {
		// Pop the smallest id for deterministic order.
		sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range g.edges {
			if e.From == n {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("element: graph has a cycle")
	}
	return order, nil
}

// Validate checks structural invariants: acyclicity and that every
// non-sink output port is connected.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for i, el := range g.nodes {
		succ := g.Successors(NodeID(i))
		for p, targets := range succ {
			if len(targets) == 0 && el.NumOutputs() > 0 {
				return fmt.Errorf("element: %s output %d unconnected", el.Name(), p)
			}
		}
	}
	return nil
}

// RemoveNode deletes a node, splicing each incoming edge to the sole
// successor of the removed node's port 0. It fails for nodes with more
// than one output port in use, which cannot be spliced unambiguously.
func (g *Graph) RemoveNode(id NodeID) error {
	succ := g.Successors(id)
	var targets []NodeID
	for p, ts := range succ {
		if len(ts) > 0 && p > 0 {
			return fmt.Errorf("element: cannot splice %s: multiple output ports in use",
				g.nodes[id].Name())
		}
		targets = append(targets, ts...)
	}
	var kept []Edge
	for _, e := range g.edges {
		switch {
		case e.To == id:
			for _, t := range targets {
				kept = append(kept, Edge{From: e.From, Port: e.Port, To: t})
			}
		case e.From == id:
			// dropped
		default:
			kept = append(kept, e)
		}
	}
	g.edges = kept
	// Compact node ids.
	g.nodes = append(g.nodes[:id], g.nodes[id+1:]...)
	for i := range g.edges {
		if g.edges[i].From > id {
			g.edges[i].From--
		}
		if g.edges[i].To > id {
			g.edges[i].To--
		}
	}
	return nil
}

// Import copies another graph's nodes and edges into g, returning the id
// offset added to the other graph's node ids.
func (g *Graph) Import(other *Graph) NodeID {
	offset := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, other.nodes...)
	for _, e := range other.edges {
		g.edges = append(g.edges, Edge{From: e.From + offset, Port: e.Port, To: e.To + offset})
	}
	return offset
}

// SetEdges replaces the whole edge list (graph-rewrite passes use it; call
// Validate afterwards).
func (g *Graph) SetEdges(edges []Edge) {
	g.edges = append(g.edges[:0], edges...)
}

// String renders the graph in a Click-config-like textual form.
func (g *Graph) String() string {
	var sb strings.Builder
	for i, el := range g.nodes {
		fmt.Fprintf(&sb, "%d: %s [%s]\n", i, el.Name(), el.Traits().Kind)
	}
	for _, e := range g.edges {
		fmt.Fprintf(&sb, "%s[%d] -> %s\n",
			g.nodes[e.From].Name(), e.Port, g.nodes[e.To].Name())
	}
	return sb.String()
}
