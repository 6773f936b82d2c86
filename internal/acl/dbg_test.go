package acl

import (
	"math/rand"
	"testing"
)

func TestDebugTreeStats(t *testing.T) {
	for _, n := range []int{200, 1000, 10000} {
		l := Generate(DefaultGenConfig(n, 7))
		tree := BuildTree(l, 8)
		rng := rand.New(rand.NewSource(1))
		total := 0
		probes := 5000
		for i := 0; i < probes; i++ {
			k := RandomMatchingKey(rng, &l.Rules[rng.Intn(len(l.Rules))])
			_, _, cost := tree.Match(k)
			total += cost
		}
		t.Logf("rules=%d nodes=%d leaves=%d depth=%d meanCost=%.1f",
			n, tree.Nodes(), tree.Leaves(), tree.MaxDepth(), float64(total)/float64(probes))
	}
}
