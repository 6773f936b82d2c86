package acl

import "math"

// The recursive, pointer-linked HiCuts builder that BuildTree's flat,
// linear-pass build replaced. It is kept only as the test reference: the
// flat tree must be node-for-node identical to it (TestBuildTreeMatchesReference).

type refNode struct {
	ruleIdx  []int32 // leaf: rule indices in priority order
	dim      Dimension
	children []*refNode
	lo, hi   uint64
}

type refTree struct {
	list                    *List
	root                    *refNode
	binth, budget           int
	nodes, leaves, maxDepth int
}

func buildRefTree(l *List, binth int) *refTree {
	if binth < 1 {
		binth = 8
	}
	t := &refTree{list: l, binth: binth, budget: 50*len(l.Rules) + 1000}
	all := make([]int32, len(l.Rules))
	for i := range all {
		all[i] = int32(i)
	}
	bounds := [numDims][2]uint64{
		{0, math.MaxUint32}, {0, math.MaxUint32}, {0, 65535}, {0, 65535}, {0, 255},
	}
	t.root = t.build(all, bounds, 0)
	return t
}

func refOverlaps(rlo, rhi, lo, hi uint64) bool { return rlo <= hi && rhi >= lo }

func (t *refTree) build(rules []int32, bounds [numDims][2]uint64, depth int) *refNode {
	t.nodes++
	if depth > t.maxDepth {
		t.maxDepth = depth
	}
	if len(rules) <= t.binth || depth >= maxTreeDepth || t.nodes >= t.budget {
		t.leaves++
		return &refNode{ruleIdx: rules}
	}
	bestDim, bestDistinct := Dimension(0), -1
	for d := Dimension(0); d < numDims; d++ {
		if bounds[d][0] == bounds[d][1] {
			continue
		}
		distinct := map[[2]uint64]struct{}{}
		for _, ri := range rules {
			lo, hi := projectRule(&t.list.Rules[ri], d)
			distinct[[2]uint64{lo, hi}] = struct{}{}
		}
		if len(distinct) > bestDistinct {
			bestDistinct, bestDim = len(distinct), d
		}
	}
	if bestDistinct <= 1 {
		t.leaves++
		return &refNode{ruleIdx: rules}
	}

	lo, hi := bounds[bestDim][0], bounds[bestDim][1]
	span := hi - lo + 1
	nCuts := 2
	for nCuts < 64 && uint64(nCuts) < span {
		next := nCuts * 2
		if uint64(next) > span {
			break
		}
		total := 0
		step := span / uint64(next)
		for c := 0; c < next; c++ {
			clo := lo + uint64(c)*step
			chi := clo + step - 1
			if c == next-1 {
				chi = hi
			}
			for _, ri := range rules {
				rlo, rhi := projectRule(&t.list.Rules[ri], bestDim)
				if refOverlaps(rlo, rhi, clo, chi) {
					total++
				}
			}
		}
		if total > len(rules)*4 {
			break
		}
		nCuts = next
	}

	node := &refNode{dim: bestDim, lo: lo, hi: hi, children: make([]*refNode, nCuts)}
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
			rlo, rhi := projectRule(&t.list.Rules[ri], bestDim)
			if refOverlaps(rlo, rhi, clo, chi) {
				childRules[c] = append(childRules[c], ri)
			}
		}
		if len(childRules[c]) < len(rules) {
			progress = true
		}
	}
	if !progress {
		t.leaves++
		return &refNode{ruleIdx: rules}
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

func (t *refTree) Match(k Key) (Action, int, int) {
	cost := 0
	n := t.root
	for n.children != nil {
		cost++
		step := (n.hi - n.lo + 1) / uint64(len(n.children))
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
	for _, ri := range n.ruleIdx {
		cost++
		if matches(&t.list.Rules[ri], k) {
			return t.list.Rules[ri].Action, int(ri), cost
		}
	}
	return t.list.DefaultAction, -1, cost
}
