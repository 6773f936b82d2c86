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

import (
	"math"
	"math/bits"
	"slices"

	"nfcompass/internal/netpkt"
)

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

// node is one decision-tree node. Nodes hold no pointers: an internal
// node's children are the n consecutive nodes from first, each 1<<shift
// wide, and a leaf's rules are Tree.rules[first:first+n], in priority order.
type node struct {
	lo, hi     uint64 // internal: range covered in dim (inclusive)
	first, n   int32
	dim, shift uint8
	leaf       bool
}

// Tree is a built HiCuts classifier: one flat node array (the root is
// nodes[0]), one array of leaf rule indices, and the list's rules compiled
// once, in list order.
type Tree struct {
	compiled []compiledRule
	deflt    Action
	nodes    []node
	rules    []int32
	leaves   int
	maxDepth int
}

// compiledRule is a rule as the leaf scan tests it, in 28 bytes: a key
// matches when its masked addresses and protocol equal the rule's and each
// port, less its range's low end, is at most the range's width. A rule with
// an empty port range gets a source mask/value pair no address meets, so
// the width's wrap-around never matches it.
type compiledRule struct {
	srcMask, srcVal, dstMask, dstVal uint32
	sportLo, sportW, dportLo, dportW uint16
	protoMask, proto                 netpkt.IPProto
	action                           Action
}

func compileRule(r *Rule) compiledRule {
	c := compiledRule{
		srcMask: uint32(^hostMask(r.SrcPlen)), dstMask: uint32(^hostMask(r.DstPlen)),
		sportLo: r.SrcPort.Lo, sportW: r.SrcPort.Hi - r.SrcPort.Lo,
		dportLo: r.DstPort.Lo, dportW: r.DstPort.Hi - r.DstPort.Lo,
		protoMask: 0xff, proto: r.Proto, action: r.Action,
	}
	c.srcVal, c.dstVal = uint32(r.SrcAddr)&c.srcMask, uint32(r.DstAddr)&c.dstMask
	if r.ProtoAny {
		c.protoMask, c.proto = 0, 0
	}
	if r.SrcPort.Lo > r.SrcPort.Hi || r.DstPort.Lo > r.DstPort.Hi {
		c.srcMask, c.srcVal = 0, 1
	}
	return c
}

func (c *compiledRule) matches(k Key) bool {
	return uint32(k.Src)&c.srcMask == c.srcVal && uint32(k.Dst)&c.dstMask == c.dstVal &&
		k.Proto&c.protoMask == c.proto &&
		k.SrcPort-c.sportLo <= c.sportW && k.DstPort-c.dportLo <= c.dportW
}

// BuildTree constructs the decision tree. binth is the leaf bucket size
// (8 is the HiCuts default); a node's cut count doubles, up to 64, while
// its children together hold at most 4x its rules.
func BuildTree(l *List, binth int) *Tree {
	if binth < 1 {
		binth = 8
	}
	n := len(l.Rules)
	// The node budget bounds HiCuts' rule-replication blowup: once spent,
	// remaining rules stay in (large) linear-scan leaves. Real classifiers
	// face the same wall — build memory is finite — which is how per-lookup
	// cost grows with rule count (the Fig. 17 effect).
	budget := 50*n + 1000
	// A node splits only while the budget lasts, so the tree holds at most
	// the budget plus the unvisited siblings along one root-to-leaf path.
	tree := &Tree{compiled: make([]compiledRule, n), deflt: l.DefaultAction,
		nodes: make([]node, 1, budget+64*(maxTreeDepth+1))}
	for i := range l.Rules {
		tree.compiled[i] = compileRule(&l.Rules[i])
	}
	b := &builder{t: tree, binth: binth, budget: budget,
		proj: make([][numDims][2]uint64, n), ids: make([][numDims]int32, n)}
	// Project every rule once, and intern each dimension's distinct
	// projections so a node counts them with a generation stamp.
	distinct := 0
	for d := Dimension(0); d < numDims; d++ {
		intern := make(map[[2]uint64]int32, n)
		for i := range l.Rules {
			lo, hi := projectRule(&l.Rules[i], d)
			id, ok := intern[[2]uint64{lo, hi}]
			if !ok {
				id = int32(len(intern))
				intern[[2]uint64{lo, hi}] = id
			}
			b.proj[i][d], b.ids[i][d] = [2]uint64{lo, hi}, id
		}
		distinct = max(distinct, len(intern))
	}
	b.stamp = make([]uint32, distinct)
	all := make([]int32, n)
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
	b.build(0, all, bounds, 0)
	if len(tree.nodes) < cap(tree.nodes)/2 {
		tree.nodes = slices.Clone(tree.nodes) // keep only what a small tree uses
	}
	return tree
}

const maxTreeDepth = 32

// builder holds one build's per-rule projections and scratch space.
type builder struct {
	t             *Tree
	binth, budget int
	visited       int                  // nodes built so far, in pre-order
	proj          [][numDims][2]uint64 // rule → projection per dimension
	ids           [][numDims]int32     // rule → interned projection per dimension
	stamp         []uint32             // interned projection → generation last counted
	gen           uint32
	scratch       []int32 // child rule lists of the nodes on the current path
}

// cover returns the children [first, last], each 1<<shift wide, of a cut
// of [lo, hi] that rule ri's projection on d overlaps. Every rule in a
// node overlaps the node's range in every dimension.
func (b *builder) cover(ri int32, d Dimension, lo, hi uint64, shift int) (int, int) {
	p := b.proj[ri][d]
	return int((max(p[0], lo) - lo) >> shift), int((min(p[1], hi) - lo) >> shift)
}

// leaf makes nodes[at] a leaf over rules.
func (b *builder) leaf(at int, rules []int32) {
	t := b.t
	t.leaves++
	t.nodes[at] = node{first: int32(len(t.rules)), n: int32(len(rules)), leaf: true}
	t.rules = append(t.rules, rules...)
}

// build fills nodes[at] with the subtree over rules, counting nodes and
// spending the budget in depth-first pre-order.
func (b *builder) build(at int, rules []int32, bounds [numDims][2]uint64, depth int) {
	t := b.t
	b.visited++
	t.maxDepth = max(t.maxDepth, depth)
	if len(rules) <= b.binth || depth >= maxTreeDepth || b.visited >= b.budget {
		b.leaf(at, rules)
		return
	}

	// Choose the dimension with the most distinct rule projections
	// (HiCuts' "maximize distinct components" heuristic).
	bestDim, bestDistinct := Dimension(0), -1
	for d := Dimension(0); d < numDims; d++ {
		if bounds[d][0] == bounds[d][1] {
			continue
		}
		b.gen++
		distinct := 0
		for _, ri := range rules {
			if id := b.ids[ri][d]; b.stamp[id] != b.gen {
				b.stamp[id] = b.gen
				distinct++
			}
		}
		if distinct > bestDistinct {
			bestDistinct, bestDim = distinct, d
		}
	}
	if bestDistinct <= 1 {
		// All rules identical in every cuttable dimension: leaf.
		b.leaf(at, rules)
		return
	}

	// Every span is a power of two: the root's are, and a node cuts its
	// span into a power-of-two number of children no wider than it. So
	// children are equal, and a child index is a shift, not a division.
	lo, hi := bounds[bestDim][0], bounds[bestDim][1]
	span := hi - lo + 1
	spanLog := bits.TrailingZeros64(span)

	// Number of cuts: double until the children's total rule count would
	// exceed 4x the node's (the space factor bound).
	nCuts := 2
	for nCuts < 64 && uint64(nCuts) < span {
		next := nCuts * 2
		if uint64(next) > span {
			break
		}
		total := 0
		for _, ri := range rules {
			first, last := b.cover(ri, bestDim, lo, hi, spanLog-bits.TrailingZeros(uint(next)))
			total += last - first + 1
		}
		if total > len(rules)*4 {
			break
		}
		nCuts = next
	}

	// Split: count each child's rules, then lay the children's lists out
	// back to back in scratch, each in priority order.
	shift := spanLog - bits.TrailingZeros(uint(nCuts))
	var end [64]int
	progress := false
	for _, ri := range rules {
		first, last := b.cover(ri, bestDim, lo, hi, shift)
		progress = progress || first > 0 || last < nCuts-1
		for c := first; c <= last; c++ {
			end[c]++
		}
	}
	if !progress {
		// Cutting did not separate anything; stop to avoid recursion
		// without progress.
		b.leaf(at, rules)
		return
	}
	base := len(b.scratch)
	for c := 1; c < nCuts; c++ {
		end[c] += end[c-1]
	}
	b.scratch = extend(b.scratch, end[nCuts-1])
	kids := b.scratch[base:]
	for i := len(rules) - 1; i >= 0; i-- { // fill each list from its end
		first, last := b.cover(rules[i], bestDim, lo, hi, shift)
		for c := first; c <= last; c++ {
			end[c]--
			kids[end[c]] = rules[i]
		}
	}

	kid := len(t.nodes)
	t.nodes = extend(t.nodes, nCuts)
	t.nodes[at] = node{lo: lo, hi: hi, first: int32(kid), n: int32(nCuts),
		dim: uint8(bestDim), shift: uint8(shift)}
	for c := 0; c < nCuts; c++ {
		cb := bounds
		clo := lo + uint64(c)<<shift
		cb[bestDim] = [2]uint64{clo, clo + 1<<shift - 1}
		stop := len(kids)
		if c+1 < nCuts {
			stop = end[c+1]
		}
		b.build(kid+c, kids[end[c]:stop], cb, depth+1)
	}
	b.scratch = b.scratch[:base]
}

// extend returns s lengthened by n zero elements. It grows s itself: the
// compiler turns append(s, make([]T, n)...) into an in-place grow only in a
// build it does not instrument, so under -race that idiom allocates a
// temporary on every call.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// projectRule projects rule r onto dimension d as an inclusive interval,
// the geometry the tree cuts the 5-tuple space with.
func projectRule(r *Rule, d Dimension) (uint64, uint64) {
	switch d {
	case DimSrcAddr:
		lo := uint64(maskAddr(r.SrcAddr, r.SrcPlen))
		return lo, lo + uint64(hostMask(r.SrcPlen))
	case DimDstAddr:
		lo := uint64(maskAddr(r.DstAddr, r.DstPlen))
		return lo, lo + uint64(hostMask(r.DstPlen))
	case DimSrcPort:
		return uint64(r.SrcPort.Lo), uint64(r.SrcPort.Hi)
	case DimDstPort:
		return uint64(r.DstPort.Lo), uint64(r.DstPort.Hi)
	default:
		if r.ProtoAny {
			return 0, 255
		}
		return uint64(r.Proto), uint64(r.Proto)
	}
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
	n := &t.nodes[0]
	for !n.leaf {
		cost++
		v := min(max(keyDim(k, Dimension(n.dim)), n.lo), n.hi)
		n = &t.nodes[n.first+int32((v-n.lo)>>n.shift)]
	}
	for _, ri := range t.rules[n.first : n.first+n.n] {
		cost++
		if c := &t.compiled[ri]; c.matches(k) {
			return c.action, int(ri), cost
		}
	}
	return t.deflt, -1, cost
}

// Nodes returns the total node count (tree memory footprint).
func (t *Tree) Nodes() int { return len(t.nodes) }

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return t.leaves }

// MaxDepth returns the deepest path length.
func (t *Tree) MaxDepth() int { return t.maxDepth }
