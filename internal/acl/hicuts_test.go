package acl

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nfcompass/internal/netpkt"
)

// sameTree reports the first difference between the flat tree and the
// reference builder's tree, walking both in depth-first pre-order:
// dimension, range and child count of every internal node, the rule order
// of every leaf, and the node/leaf/depth totals.
func sameTree(tree *Tree, ref *refTree) error {
	if tree.Nodes() != ref.nodes || tree.Leaves() != ref.leaves || tree.MaxDepth() != ref.maxDepth {
		return fmt.Errorf("nodes/leaves/depth %d/%d/%d, reference %d/%d/%d",
			tree.Nodes(), tree.Leaves(), tree.MaxDepth(), ref.nodes, ref.leaves, ref.maxDepth)
	}
	var walk func(at int, r *refNode, path string) error
	walk = func(at int, r *refNode, path string) error {
		n := tree.nodes[at]
		if n.leaf != (r.children == nil) {
			return fmt.Errorf("node %s: leaf=%v, reference leaf=%v", path, n.leaf, r.children == nil)
		}
		if n.leaf {
			if got := tree.rules[n.first : n.first+n.n]; !slices.Equal(got, r.ruleIdx) {
				return fmt.Errorf("leaf %s: rules %v, reference %v", path, got, r.ruleIdx)
			}
			return nil
		}
		if Dimension(n.dim) != r.dim || n.lo != r.lo || n.hi != r.hi || int(n.n) != len(r.children) {
			return fmt.Errorf("node %s: dim %d [%d,%d] %d children, reference dim %d [%d,%d] %d children",
				path, n.dim, n.lo, n.hi, n.n, r.dim, r.lo, r.hi, len(r.children))
		}
		for c, rc := range r.children {
			if err := walk(int(n.first)+c, rc, fmt.Sprintf("%s/%d", path, c)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, ref.root, "")
}

// checkAgainstReference builds l both ways and asserts the trees are
// identical and every lookup returns the same (action, rule, cost) on
// random keys and on keys drawn from the rules themselves.
func checkAgainstReference(t *testing.T, l *List, binth int, seed int64) {
	t.Helper()
	tree, ref := BuildTree(l, binth), buildRefTree(l, binth)
	if err := sameTree(tree, ref); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
		k := Key{
			Src: netpkt.IPv4Addr(rng.Uint32()), Dst: netpkt.IPv4Addr(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: netpkt.IPProto(rng.Intn(256)),
		}
		if i%2 == 0 && l.Len() > 0 {
			k = RandomMatchingKey(rng, &l.Rules[rng.Intn(l.Len())])
		}
		ga, gi, gc := tree.Match(k)
		ra, ri, rc := ref.Match(k)
		if ga != ra || gi != ri || gc != rc {
			t.Fatalf("key %+v: (%v,%d,%d), reference (%v,%d,%d)", k, ga, gi, gc, ra, ri, rc)
		}
	}
}

func TestBuildTreeMatchesReference(t *testing.T) {
	for _, n := range []int{1, 8, 9, 50, 200, 1000, 3000} {
		for seed := int64(1); seed <= 9; seed++ {
			for _, binth := range []int{4, 8} {
				t.Run(fmt.Sprintf("n%d/seed%d/binth%d", n, seed, binth), func(t *testing.T) {
					checkAgainstReference(t, Generate(DefaultGenConfig(n, seed)), binth, seed)
				})
			}
		}
	}
	sample, err := ParseClassBench(strings.NewReader(sampleFilterSet))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteClassBench(&buf, Generate(DefaultGenConfig(150, 5))); err != nil {
		t.Fatal(err)
	}
	roundTrip, err := ParseClassBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*List{"sample": sample, "roundtrip150": roundTrip} {
		for _, binth := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/binth%d", name, binth), func(t *testing.T) {
				checkAgainstReference(t, l, binth, 3)
			})
		}
	}
}

// TestBuildTreeAllocs guards the flat build: a 1000-rule tree is a handful
// of arrays, not one heap object per node and child list.
func TestBuildTreeAllocs(t *testing.T) {
	l := Generate(DefaultGenConfig(1000, 8))
	if allocs := testing.AllocsPerRun(1, func() { BuildTree(l, 8) }); allocs > 1000 {
		t.Errorf("BuildTree(1000 rules) made %.0f allocations, want <= 1000", allocs)
	}
}

// BenchmarkBuildTree times the flat build against the reference builder on
// the seed-8 ACLs the firewall deploys.
func BenchmarkBuildTree(b *testing.B) {
	for _, n := range []int{200, 1000, 10000} {
		l := Generate(DefaultGenConfig(n, 8))
		b.Run(fmt.Sprintf("new/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var tree *Tree
			for i := 0; i < b.N; i++ {
				tree = BuildTree(l, 8)
			}
			b.ReportMetric(float64(tree.Nodes()), "nodes")
			b.ReportMetric(float64(tree.Leaves()), "leaves")
			b.ReportMetric(float64(tree.MaxDepth()), "depth")
		})
		b.Run(fmt.Sprintf("ref/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var ref *refTree
			for i := 0; i < b.N; i++ {
				ref = buildRefTree(l, 8)
			}
			b.ReportMetric(float64(ref.nodes), "nodes")
			b.ReportMetric(float64(ref.leaves), "leaves")
			b.ReportMetric(float64(ref.maxDepth), "depth")
		})
	}
}
