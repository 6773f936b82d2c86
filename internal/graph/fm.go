package graph

import "math"

// Modified Kernighan–Lin refinement (single-node moves in the
// Fiduccia–Mattheyses style, which handles unequal per-side node weights).
// Each pass tentatively moves every free node once, in best-gain-first
// order, where gain is the reduction of the allocator objective
// (max-side-load + cut weight); the best prefix of the move sequence is
// kept. Passes repeat until no improvement — the "iteratively swaps ...
// and examines the gain function determined by the removed edges and
// balanced tasks" loop of the paper.

// Refine improves p in place and returns the final cost. maxPasses bounds
// the outer loop (8 is plenty; KL converges in a few passes).
//
// A trial flip of v is priced from the current loads and cut ± v's weights
// and edges, O(deg v). That rounds unlike Cost, whose rounding alone breaks
// the exact ties between an element's expanded instances, so trials within
// rounding of the best are priced by Cost: the moves are a full search's.
func Refine(g *WGraph, p Partition, maxPasses int) float64 {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	best := g.Cost(p)
	n := g.Len()
	// slack: twice how far two orders of summing g's weights can round apart.
	slack, trial := 0.0, make([]float64, n)
	for v, adj := range g.adj {
		slack += math.Abs(g.wCPU[v]) + math.Abs(g.wGPU[v])
		for _, e := range adj {
			slack += math.Abs(e.W)
		}
	}
	slack *= float64(n+2*g.NumEdges()+16) * 0x1p-49
	for pass := 0; pass < maxPasses; pass++ {
		locked := make([]bool, n)
		type mv struct {
			v    int
			cost float64
		}
		seq := make([]mv, 0, n)
		cur := append(Partition(nil), p...)

		for moves := 0; moves < n; moves++ {
			cpu, gpu := g.Loads(cur)
			cut, lo := g.CutWeight(cur), math.Inf(1)
			for v := 0; v < n; v++ {
				if locked[v] || g.fixed[v] != nil {
					continue
				}
				c, gp, k := cpu+g.wCPU[v], gpu-g.wGPU[v], cut
				if cur[v] == CPU {
					c, gp = cpu-g.wCPU[v], gpu+g.wGPU[v]
				}
				for _, e := range g.adj[v] {
					if cur[e.To] == cur[v] {
						k += e.W
					} else {
						k -= e.W
					}
				}
				trial[v] = max(c, gp+k)
				lo = min(lo, trial[v])
			}
			bestV, bestCost := -1, 0.0
			for v := 0; v < n; v++ {
				if locked[v] || g.fixed[v] != nil || trial[v] > lo+slack {
					continue
				}
				cur[v] = cur[v].Other()
				c := g.Cost(cur)
				cur[v] = cur[v].Other()
				if bestV == -1 || c < bestCost {
					bestV, bestCost = v, c
				}
			}
			if bestV == -1 {
				break
			}
			cur[bestV] = cur[bestV].Other()
			locked[bestV] = true
			seq = append(seq, mv{v: bestV, cost: bestCost})
		}

		// Keep the best prefix.
		bestIdx, bestSeqCost := -1, best
		for i, m := range seq {
			if m.cost < bestSeqCost {
				bestIdx, bestSeqCost = i, m.cost
			}
		}
		if bestIdx < 0 {
			break // no improving prefix: converged
		}
		for i := 0; i <= bestIdx; i++ {
			p[seq[i].v] = p[seq[i].v].Other()
		}
		best = bestSeqCost
	}
	return best
}

// GreedyInitial builds a starting partition: pins are honoured, then free
// nodes are assigned one at a time (heaviest first) to whichever side
// yields the lower objective.
func GreedyInitial(g *WGraph) Partition {
	p := g.InitialPartition()
	n := g.Len()
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if g.fixed[v] == nil {
			order = append(order, v)
		}
	}
	// Heaviest (by max-side weight) first.
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && maxw(g, order[j]) < maxw(g, v) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	for _, v := range order {
		p[v] = CPU
		cCPU := g.Cost(p)
		p[v] = GPU
		cGPU := g.Cost(p)
		if cCPU <= cGPU {
			p[v] = CPU
		}
	}
	return p
}

func maxw(g *WGraph, v int) float64 {
	if g.wCPU[v] > g.wGPU[v] {
		return g.wCPU[v]
	}
	return g.wGPU[v]
}

// PartitionKL is the full modified-KL pipeline: greedy initial assignment
// followed by refinement.
func PartitionKL(g *WGraph) (Partition, float64) {
	p := GreedyInitial(g)
	cost := Refine(g, p, 8)
	return p, cost
}
