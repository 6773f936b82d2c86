package acl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nfcompass/internal/netpkt"
)

// compareTree asserts the tree agrees with the linear first-match-wins
// reference on key k — action AND index, so priority ties cannot hide
// behind equal actions — and that its cost is the reference builder's.
func compareTree(t *testing.T, l *List, tree *Tree, ref *refTree, k Key) {
	t.Helper()
	la, li := l.MatchLinear(k)
	ta, ti, cost := tree.Match(k)
	if ta != la || ti != li {
		t.Fatalf("key %+v: tree (%v,%d) != linear (%v,%d)", k, ta, ti, la, li)
	}
	if _, _, rc := ref.Match(k); cost != rc {
		t.Fatalf("key %+v: tree cost %d, reference builder %d", k, cost, rc)
	}
}

// dimMax is the inclusive upper bound of each dimension's value space.
func dimMax(d Dimension) uint64 {
	switch d {
	case DimSrcAddr, DimDstAddr:
		return 1<<32 - 1
	case DimSrcPort, DimDstPort:
		return 65535
	default:
		return 255
	}
}

// keyWithDim returns k with dimension d overwritten to value v.
func keyWithDim(k Key, d Dimension, v uint64) Key {
	switch d {
	case DimSrcAddr:
		k.Src = netpkt.IPv4Addr(v)
	case DimDstAddr:
		k.Dst = netpkt.IPv4Addr(v)
	case DimSrcPort:
		k.SrcPort = uint16(v)
	case DimDstPort:
		k.DstPort = uint16(v)
	default:
		k.Proto = netpkt.IPProto(v)
	}
	return k
}

// boundaryKeys derives the adversarial probes for rule r: a key matching r
// with each dimension in turn pinned to the rule interval's edges and one
// past them (lo-1, lo, hi, hi+1) — exactly the values where an off-by-one
// in a cut or a compiled range would flip the match. An empty port range
// is widened to every port for the base key, so the probes land on both
// sides of the inverted interval.
func boundaryKeys(rng *rand.Rand, r *Rule) []Key {
	wide := *r
	if wide.SrcPort.Lo > wide.SrcPort.Hi {
		wide.SrcPort = AnyPort
	}
	if wide.DstPort.Lo > wide.DstPort.Hi {
		wide.DstPort = AnyPort
	}
	base := RandomMatchingKey(rng, &wide)
	keys := make([]Key, 0, 4*numDims+1)
	keys = append(keys, base)
	for d := Dimension(0); d < numDims; d++ {
		lo, hi := projectRule(r, d)
		for _, v := range []uint64{lo - 1, lo, hi, hi + 1} {
			if v > dimMax(d) { // lo-1 underflowed or hi+1 overflowed
				continue
			}
			keys = append(keys, keyWithDim(base, d, v))
		}
	}
	return keys
}

// edgeList holds the rule shapes generated lists rarely or never contain:
// empty port ranges (which must never match), ProtoAny, and prefix lengths
// 0 and 32 on both addresses.
var edgeList = &List{DefaultAction: Deny, Rules: []Rule{
	{SrcAddr: 0x0a000000, SrcPlen: 8, SrcPort: PortRange{100, 50}, DstPort: AnyPort, ProtoAny: true},
	{DstAddr: 0xc0a80101, DstPlen: 32, SrcPort: AnyPort, DstPort: PortRange{443, 443},
		Proto: netpkt.IPProtoTCP, Action: Deny},
	{SrcAddr: 0x0a000001, SrcPlen: 32, SrcPort: AnyPort, DstPort: PortRange{8000, 7999}, ProtoAny: true},
	{SrcAddr: 0xffffffff, SrcPlen: 32, DstPlen: 32, SrcPort: PortRange{0, 0},
		DstPort: PortRange{65535, 65535}, Proto: 255, Action: Deny},
	{SrcPort: PortRange{65535, 0}, DstPort: PortRange{65535, 0}, ProtoAny: true},
	{SrcPort: PortRange{1024, 65535}, DstPort: AnyPort, ProtoAny: true},
	{SrcAddr: 0xc0a80000, SrcPlen: 16, DstAddr: 0x0a0a0a0a, DstPlen: 32, SrcPort: AnyPort,
		DstPort: PortRange{53, 53}, Proto: netpkt.IPProtoUDP, Action: Deny},
	{SrcPort: AnyPort, DstPort: AnyPort, ProtoAny: true, Action: Deny},
}}

// TestTableVsTreeClassBench cross-checks the tree against the rule list
// over ClassBench-style rule sets and the edge-shaped list: per-rule
// boundary keys sitting on every rule's interval edges, and uniform random
// keys. The name is kept from when it also checked the bit-vector
// decision table.
func TestTableVsTreeClassBench(t *testing.T) {
	configs := []struct {
		name string
		l    *List
		seed int64
	}{
		{"empty", &List{DefaultAction: Deny}, 5},
		{"edges", edgeList, 6},
		{"n1", generate(1, 9, 0.5, 0), 9},
		{"n16", generate(16, 1, 0.3, 0.25), 1},
		{"n200", generate(200, 2, 0.3, 0.25), 2},
		{"n700", generate(700, 3, 0.3, 0.6), 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			l := cfg.l
			tree, ref := BuildTree(l, 8), buildRefTree(l, 8)
			rng := rand.New(rand.NewSource(cfg.seed * 977))
			for i := range l.Rules {
				for _, k := range boundaryKeys(rng, &l.Rules[i]) {
					compareTree(t, l, tree, ref, k)
				}
			}
			for i := 0; i < 500; i++ {
				compareTree(t, l, tree, ref, Key{
					Src: netpkt.IPv4Addr(rng.Uint32()), Dst: netpkt.IPv4Addr(rng.Uint32()),
					SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
					Proto: netpkt.IPProto(rng.Intn(256)),
				})
			}
		})
	}
}

// TestTableEmptyList: a tree over an empty list must answer the list's
// default action, rule index -1, at cost 0, for any key.
func TestTableEmptyList(t *testing.T) {
	for _, def := range []Action{Deny, Permit} {
		tree := BuildTree(&List{DefaultAction: def}, 8)
		for _, k := range []Key{{}, {Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netpkt.IPProtoUDP}} {
			if a, i, cost := tree.Match(k); a != def || i != -1 || cost != 0 {
				t.Fatalf("empty list, default %v, key %+v: (%v,%d,%d), want (%v,-1,0)", def, k, a, i, cost, def)
			}
		}
	}
}

// TestTableFirstMatchWins: with a specific rule shadowed by a later
// broader rule, the tree must report the earlier (higher-priority) index,
// whether the rules share one leaf (binth 8) or the tree cuts (binth 1).
func TestTableFirstMatchWins(t *testing.T) {
	l := &List{
		DefaultAction: Permit,
		Rules: []Rule{
			{SrcAddr: 0x0a000000, SrcPlen: 8, SrcPort: AnyPort, DstPort: PortRange{80, 80}, ProtoAny: true, Action: Deny},
			{SrcAddr: 0x0a000000, SrcPlen: 8, SrcPort: AnyPort, DstPort: AnyPort, ProtoAny: true, Action: Permit},
		},
	}
	for _, binth := range []int{1, 8} {
		tree := BuildTree(l, binth)
		if a, i, _ := tree.Match(Key{Src: 0x0a010203, DstPort: 80}); a != Deny || i != 0 {
			t.Fatalf("binth %d, shadowed rule: got (%v,%d); want (Deny,0)", binth, a, i)
		}
		if a, i, _ := tree.Match(Key{Src: 0x0a010203, DstPort: 81}); a != Permit || i != 1 {
			t.Fatalf("binth %d, fallthrough rule: got (%v,%d); want (Permit,1)", binth, a, i)
		}
		if a, i, _ := tree.Match(Key{Src: 0x0b010203, DstPort: 80}); a != Permit || i != -1 {
			t.Fatalf("binth %d, no rule: got (%v,%d); want (Permit,-1)", binth, a, i)
		}
	}
}

// FuzzTreeVsLinear is the equivalence fuzz harness of the tree: every
// generated rule set and key (fuzz-chosen plus rule-derived boundary
// probes) must classify as the linear reference does, at the reference
// builder's cost.
func FuzzTreeVsLinear(f *testing.F) {
	f.Add(int64(1), uint8(16), uint32(0x01020304), uint32(0x05060708), uint16(80), uint16(443), uint8(6))
	f.Add(int64(7), uint8(1), uint32(0), uint32(0xffffffff), uint16(0), uint16(65535), uint8(0))
	f.Add(int64(42), uint8(200), uint32(0x0a000001), uint32(0x0a000002), uint16(53), uint16(53), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, src, dst uint32, sp, dp uint16, proto uint8) {
		if n == 0 {
			n = 1
		}
		// Vary overlap density with the corpus.
		l := generate(int(n), seed, denyFraction, float64(n%4)*0.2)
		tree, ref := BuildTree(l, 4), buildRefTree(l, 4)

		compareTree(t, l, tree, ref, Key{
			Src: netpkt.IPv4Addr(src), Dst: netpkt.IPv4Addr(dst),
			SrcPort: sp, DstPort: dp, Proto: netpkt.IPProto(proto),
		})
		rng := rand.New(rand.NewSource(seed))
		probe := l.Rules[int(n)%len(l.Rules)]
		for _, k := range boundaryKeys(rng, &probe) {
			compareTree(t, l, tree, ref, k)
		}
	})
}

// TestTreeSharedAcrossGoroutines: firewall replicas share one tree
// (nf.NewFirewall builds it once per NF), so Match must write nothing —
// concurrent lookups agree with the linear reference, and under -race any
// write to the shared tree is reported.
func TestTreeSharedAcrossGoroutines(t *testing.T) {
	l := Generate(300, 5)
	tree := BuildTree(l, 8)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := RandomMatchingKey(rng, &l.Rules[rng.Intn(len(l.Rules))])
				la, li := l.MatchLinear(k)
				if ra, ri, _ := tree.Match(k); ra != la || ri != li {
					errs <- fmt.Sprintf("key %+v: tree (%v,%d) linear (%v,%d)", k, ra, ri, la, li)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
