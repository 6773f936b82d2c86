package core

import (
	"fmt"
	"slices"

	"nfcompass/internal/element"
)

// SynthesisReport records what the NF synthesizer changed — the numbers
// the evaluation reports (removed redundant elements, hoisted drops).
type SynthesisReport struct {
	// Removed lists the names of de-duplicated or dead elements.
	Removed []string
	// DeadWrites lists pure-overwrite elements eliminated as dead.
	DeadWrites []string
	// Hoisted lists drop-capable classifiers moved earlier.
	Hoisted []string
	// Before and After are the element counts.
	Before, After int
}

// Synthesize applies the NF-level merging of §IV-B-2 to a *linear* element
// chain (the shape BuildChain and each parallel branch produce): it
// removes redundant duplicate classifiers, eliminates dead pure
// overwrites, and hoists drop-capable classifiers to the front of their
// classifier runs — all under the safety rules of Fig. 11 (classifiers
// never move across modifiers or shapers; stateful order is preserved
// because reordering stays within read-only runs).
//
// The passes work on the chain's element sequence; the graph is then
// rewired once, in place. Non-linear graphs are rejected.
func Synthesize(g *element.Graph) (*SynthesisReport, error) {
	seq, err := LinearSequence(g)
	if err != nil {
		return nil, err
	}
	rep, seq, moved := synthesize(g, seq)
	relink(g, seq, moved)
	return rep, nil
}

// synthesize runs the three passes over seq, the chain of g in order, and
// returns the report, the synthesized sequence, and the nodes of the
// classifier runs that hoisting re-ordered. g is only read.
func synthesize(g *element.Graph, seq []element.NodeID) (*SynthesisReport, []element.NodeID, map[element.NodeID]bool) {
	rep := &SynthesisReport{Before: len(seq)}

	// Pass 1: a read-only classifier that may move up to its nearest
	// earlier twin runs once: the twin's verdict stands for it.
	var dedup []element.NodeID
	for _, id := range seq {
		e := g.Node(id)
		twin := -1
		for k, d := range dedup {
			if g.Node(d).Signature() == e.Signature() {
				twin = k
			}
		}
		if twin >= 0 && mayLead(g, e.Traits(), dedup[twin+1:]) {
			rep.Removed = append(rep.Removed, e.Name())
			continue
		}
		dedup = append(dedup, id)
	}

	// Pass 2: dead pure-overwrite elimination — an earlier pure
	// overwrite of the same kind is dead if nothing between it and a
	// later one reads the written region.
	var live []element.NodeID
	for i, id := range dedup {
		if deadWrite(g, dedup[i:]) {
			rep.DeadWrites = append(rep.DeadWrites, g.Node(id).Name())
			continue
		}
		live = append(live, id)
	}

	// Pass 3: drop hoisting — each maximal run of classifiers is
	// stable-partitioned so the drop-capable ones lead, and doomed packets
	// stop consuming downstream work (§IV-B-2 redundancy source #2).
	moved := map[element.NodeID]bool{}
	for i := 0; i < len(live); {
		j := i
		for j < len(live) && g.Node(live[j]).Traits().Class == element.ClassClassifier {
			j++
		}
		if j == i {
			i++
			continue
		}
		var front, back []element.NodeID
		for _, id := range live[i:j] {
			if t := g.Node(id).Traits(); t.CanDrop && mayLead(g, t, back) {
				front = append(front, id)
			} else {
				back = append(back, id)
			}
		}
		if order := append(front, back...); !slices.Equal(order, live[i:j]) {
			for k, id := range front {
				if id != live[i+k] {
					rep.Hoisted = append(rep.Hoisted, g.Node(id).Name())
				}
			}
			for _, id := range live[i:j] {
				moved[id] = true
			}
			copy(live[i:j], order)
		}
		i = j
	}
	rep.After = len(live)
	return rep, live, moved
}

// isReadOnlyClassifier reports whether the element only inspects packets.
func isReadOnlyClassifier(t element.Traits) bool {
	return t.Class == element.ClassClassifier &&
		!t.WritesHeader && !t.WritesPayload && !t.AddsRemovesBytes
}

// mayLead is the one re-order rule of synthesis and composition: a
// read-only classifier with traits x may run ahead of the elements passed —
// in place of its twin behind them, or at the front of its run — when none
// of them disturbs a region it reads (header writers are tolerated when they
// preserve header validity; payload writers always block payload readers)
// or is a shaper, whose reordering and duplication are opaque.
func mayLead(g *element.Graph, x element.Traits, passed []element.NodeID) bool {
	if !isReadOnlyClassifier(x) {
		return false
	}
	for _, id := range passed {
		t := g.Node(id).Traits()
		if x.ReadsPayload && (t.WritesPayload || t.AddsRemovesBytes) ||
			x.ReadsHeader && (t.WritesHeader || t.AddsRemovesBytes) && !t.PreservesHeaderValidity ||
			t.Class == element.ClassShaper {
			return false
		}
	}
	return true
}

// deadWrite reports whether seq[0], a pure header overwrite, is
// overwritten by a later one of its kind before anything reads the region.
func deadWrite(g *element.Graph, seq []element.NodeID) bool {
	w := g.Node(seq[0]).Traits()
	if !w.PureOverwrite || !w.WritesHeader {
		return false
	}
	for _, id := range seq[1:] {
		t := g.Node(id).Traits()
		switch {
		case t.ReadsHeader || t.Class == element.ClassShaper:
			return false // region read (or opaque shaper): the write is live
		case t.PureOverwrite && t.Kind == w.Kind:
			return true
		case t.WritesHeader:
			return false // a non-pure write intervenes; be conservative
		}
	}
	return false
}

// relink rewires the linear chain g to run seq, a subsequence of its nodes
// in a new order, and returns seq in the new node ids. Nodes not in seq go
// and the others keep their relative ids; an edge between two nodes that
// stay neighbours outside the moved (re-ordered) runs keeps its place in
// the edge list, and every other link is appended in chain order.
func relink(g *element.Graph, seq []element.NodeID, moved map[element.NodeID]bool) []element.NodeID {
	next := make(map[element.NodeID]element.NodeID, len(seq))
	for k := 1; k < len(seq); k++ {
		next[seq[k-1]] = seq[k]
	}
	var edges []element.Edge
	for _, e := range g.Edges() {
		if to, ok := next[e.From]; ok && !moved[e.From] && !moved[to] {
			edges = append(edges, element.Edge{From: e.From, Port: e.Port, To: to})
		}
	}
	for k := 1; k < len(seq); k++ {
		if moved[seq[k-1]] || moved[seq[k]] {
			edges = append(edges, element.Edge{From: seq[k-1], To: seq[k]})
		}
	}
	g.SetEdges(edges)

	newID := make([]element.NodeID, g.Len()) // 1 for a node of seq, then its new id
	for _, id := range seq {
		newID[id] = 1
	}
	n := element.NodeID(0)
	for id := len(newID) - 1; id >= 0; id-- {
		if newID[id] == 0 {
			// No edge touches the node any more, so RemoveNode only
			// compacts the ids above it and cannot fail.
			_ = g.RemoveNode(element.NodeID(id))
		}
	}
	for id, k := range newID {
		newID[id] = n
		n += k
	}
	out := make([]element.NodeID, len(seq))
	for k, id := range seq {
		out[k] = newID[id]
	}
	return out
}

// LinearSequence extracts the single path of a linear chain graph, in
// order: the synthesizer's element sequence, and how builders that splice
// synthesized segments find their entry and exit nodes.
func LinearSequence(g *element.Graph) ([]element.NodeID, error) {
	srcs := g.Sources()
	if len(srcs) != 1 {
		return nil, fmt.Errorf("core: synthesizer requires a linear chain (got %d sources)", len(srcs))
	}
	var seq []element.NodeID
	cur := srcs[0]
	seen := map[element.NodeID]bool{}
	for {
		if seen[cur] {
			return nil, fmt.Errorf("core: cycle in chain")
		}
		seen[cur] = true
		seq = append(seq, cur)
		succ := g.Successors(cur)
		switch {
		case len(succ) == 0 || len(succ[0]) == 0:
			if len(seq) != g.Len() {
				return nil, fmt.Errorf("core: graph is not a single linear chain")
			}
			return seq, nil
		case len(succ) > 1 || len(succ[0]) > 1:
			return nil, fmt.Errorf("core: element %s branches; chain not linear",
				g.Node(cur).Name())
		}
		cur = succ[0][0]
	}
}
