package acl

// HiCuts-style decision-tree classifier. The tree recursively cuts the
// 5-tuple space along one dimension into equal-size intervals until every
// leaf holds at most binth rules, which are then searched linearly.
//
// The tree's node count and depth grow super-linearly with rule count when
// rules overlap heavily — exactly the "classification tree becomes huge"
// effect that degrades FastClick and NBA on the 1000/10000-rule ACLs in the
// paper's Fig. 17. The classifier exports size and per-lookup cost metrics
// so the platform cost model can charge for tree traversal and leaf scans.

import "math"

// Dimension indexes the 5-tuple fields the tree can cut on.
type Dimension int

// Cut dimensions.
const (
	DimSrcAddr Dimension = iota
	DimDstAddr
	DimSrcPort
	DimDstPort
	DimProto
	numDims
)

// treeNode is one decision-tree node.
type treeNode struct {
	// Leaf payload: indices into the rule list, in priority order.
	ruleIdx []int32
	// Internal payload: cut dimension, number of children, and the
	// covered range in that dimension.
	dim      Dimension
	children []*treeNode
	lo, hi   uint64 // range covered in dim (inclusive)
}

// Tree is a built HiCuts classifier.
type Tree struct {
	list     *List
	root     *treeNode
	binth    int
	budget   int
	nodes    int
	leaves   int
	maxDepth int
}

// BuildTree constructs the decision tree. binth is the leaf bucket size
// (8 is the HiCuts default); spfac bounds the space expansion per node.
func BuildTree(l *List, binth int) *Tree {
	if binth < 1 {
		binth = 8
	}
	// The node budget bounds HiCuts' rule-replication blowup: once spent,
	// remaining rules stay in (large) linear-scan leaves. Real classifiers
	// face the same wall — build memory is finite — which is how per-lookup
	// cost grows with rule count (the Fig. 17 effect).
	t := &Tree{list: l, binth: binth, budget: 50*len(l.Rules) + 1000}
	all := make([]int32, len(l.Rules))
	for i := range all {
		all[i] = int32(i)
	}
	bounds := [numDims][2]uint64{
		{0, math.MaxUint32}, // src addr
		{0, math.MaxUint32}, // dst addr
		{0, 65535},          // src port
		{0, 65535},          // dst port
		{0, 255},            // proto
	}
	t.root = t.build(all, bounds, 0)
	return t
}

// ruleRange projects rule r onto dimension d as an inclusive interval.
// Delegates to projectRule so both classifier engines cut the 5-tuple
// space with identical geometry.
func (t *Tree) ruleRange(r *Rule, d Dimension) (uint64, uint64) {
	return projectRule(r, d)
}

func overlaps(rlo, rhi, lo, hi uint64) bool { return rlo <= hi && rhi >= lo }

const maxTreeDepth = 32

func (t *Tree) build(rules []int32, bounds [numDims][2]uint64, depth int) *treeNode {
	t.nodes++
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if len(rules) <= t.binth || depth >= maxTreeDepth || t.nodes >= t.budget {
		t.leaves++
		return &treeNode{ruleIdx: rules}
	}

	// Choose the dimension with the most distinct rule projections
	// (HiCuts' "maximize distinct components" heuristic).
	bestDim, bestDistinct := Dimension(0), -1
	for d := Dimension(0); d < numDims; d++ {
		if bounds[d][0] == bounds[d][1] {
			continue
		}
		distinct := map[[2]uint64]struct{}{}
		for _, ri := range rules {
			lo, hi := t.ruleRange(&t.list.Rules[ri], d)
			distinct[[2]uint64{lo, hi}] = struct{}{}
		}
		if len(distinct) > bestDistinct {
			bestDistinct, bestDim = len(distinct), d
		}
	}
	if bestDistinct <= 1 {
		// All rules identical in every cuttable dimension: leaf.
		t.leaves++
		return &treeNode{ruleIdx: rules}
	}

	lo, hi := bounds[bestDim][0], bounds[bestDim][1]
	span := hi - lo + 1

	// Number of cuts: grow until the child rule count stops improving or
	// the space factor bound is hit (simplified spfac heuristic).
	nCuts := 2
	for nCuts < 64 && uint64(nCuts) < span {
		next := nCuts * 2
		if uint64(next) > span {
			break
		}
		// Estimate total rules across children at next granularity.
		total := 0
		step := span / uint64(next)
		for c := 0; c < next; c++ {
			clo := lo + uint64(c)*step
			chi := clo + step - 1
			if c == next-1 {
				chi = hi
			}
			for _, ri := range rules {
				rlo, rhi := t.ruleRange(&t.list.Rules[ri], bestDim)
				if overlaps(rlo, rhi, clo, chi) {
					total++
				}
			}
		}
		if total > len(rules)*4 { // space factor bound
			break
		}
		nCuts = next
	}

	node := &treeNode{dim: bestDim, lo: lo, hi: hi, children: make([]*treeNode, nCuts)}
	step := span / uint64(nCuts)
	progress := false
	childRules := make([][]int32, nCuts)
	for c := 0; c < nCuts; c++ {
		clo := lo + uint64(c)*step
		chi := clo + step - 1
		if c == nCuts-1 {
			chi = hi
		}
		for _, ri := range rules {
			rlo, rhi := t.ruleRange(&t.list.Rules[ri], bestDim)
			if overlaps(rlo, rhi, clo, chi) {
				childRules[c] = append(childRules[c], ri)
			}
		}
		if len(childRules[c]) < len(rules) {
			progress = true
		}
	}
	if !progress {
		// Cutting did not separate anything; stop to avoid recursion
		// without progress.
		t.leaves++
		return &treeNode{ruleIdx: rules}
	}
	for c := 0; c < nCuts; c++ {
		cb := bounds
		clo := lo + uint64(c)*step
		chi := clo + step - 1
		if c == nCuts-1 {
			chi = hi
		}
		cb[bestDim] = [2]uint64{clo, chi}
		node.children[c] = t.build(childRules[c], cb, depth+1)
	}
	return node
}

func keyDim(k Key, d Dimension) uint64 {
	switch d {
	case DimSrcAddr:
		return uint64(k.Src)
	case DimDstAddr:
		return uint64(k.Dst)
	case DimSrcPort:
		return uint64(k.SrcPort)
	case DimDstPort:
		return uint64(k.DstPort)
	default:
		return uint64(k.Proto)
	}
}

// Match classifies k, returning the action, the matching rule index (-1 for
// default) and the lookup's cost: the traversal steps plus leaf rules
// examined, which the platform cost model charges as memory accesses. It
// writes nothing, so replicas may share one tree.
func (t *Tree) Match(k Key) (Action, int, int) {
	cost := 0
	n := t.root
	for n.children != nil {
		cost++
		span := n.hi - n.lo + 1
		step := span / uint64(len(n.children))
		v := keyDim(k, n.dim)
		if v < n.lo {
			v = n.lo
		}
		if v > n.hi {
			v = n.hi
		}
		c := int((v - n.lo) / step)
		if c >= len(n.children) {
			c = len(n.children) - 1
		}
		n = n.children[c]
	}
	best := -1
	for _, ri := range n.ruleIdx {
		cost++
		if t.list.Rules[ri].Matches(k) {
			best = int(ri)
			break
		}
	}
	if best < 0 {
		return t.list.DefaultAction, -1, cost
	}
	return t.list.Rules[best].Action, best, cost
}

// Nodes returns the total node count (tree memory footprint).
func (t *Tree) Nodes() int { return t.nodes }

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.leaves }

// MaxDepth returns the deepest path length.
func (t *Tree) MaxDepth() int { return t.maxDepth }
