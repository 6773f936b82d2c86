package graph

// ReferenceRefine and Coarsen export test-only pieces to the external tests.
var (
	ReferenceRefine = referenceRefine
	Coarsen         = coarsen
)

// referenceRefine is Refine as it was before trial moves were priced from the
// current loads and cut: every trial flip re-sums the whole Cost. It is kept,
// in this test file only, as what TestRefineMatchesReference holds Refine to.
func referenceRefine(g *WGraph, p Partition, maxPasses int) float64 {
	if maxPasses <= 0 {
		maxPasses = 8
	}
	best := g.Cost(p)
	n := g.Len()
	for pass := 0; pass < maxPasses; pass++ {
		locked := make([]bool, n)
		type mv struct {
			v    int
			cost float64
		}
		seq := make([]mv, 0, n)
		cur := append(Partition(nil), p...)

		for moves := 0; moves < n; moves++ {
			bestV, bestCost := -1, 0.0
			for v := 0; v < n; v++ {
				if locked[v] || g.fixed[v] != nil {
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

		bestIdx, bestSeqCost := -1, best
		for i, m := range seq {
			if m.cost < bestSeqCost {
				bestIdx, bestSeqCost = i, m.cost
			}
		}
		if bestIdx < 0 {
			break
		}
		for i := 0; i <= bestIdx; i++ {
			p[seq[i].v] = p[seq[i].v].Other()
		}
		best = bestSeqCost
	}
	return best
}
