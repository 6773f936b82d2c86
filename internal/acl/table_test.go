package acl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nfcompass/internal/netpkt"
)

// compareEngines asserts the compiled table and the HiCuts tree both agree
// with the linear first-match-wins reference on key k — action AND index,
// so priority ties cannot hide behind equal actions.
func compareEngines(t *testing.T, l *List, tab *Table, tree *Tree, k Key) {
	t.Helper()
	la, li := l.MatchLinear(k)
	ta, ti, cost := tab.Match(k)
	if ta != la || ti != li {
		t.Fatalf("key %+v: table (%v,%d) != linear (%v,%d)", k, ta, ti, la, li)
	}
	if cost < int(numDims) {
		t.Fatalf("table cost %d below the %d dimension lookups", cost, numDims)
	}
	if tree != nil {
		if ra, ri, _ := tree.Match(k); ra != la || ri != li {
			t.Fatalf("key %+v: tree (%v,%d) != linear (%v,%d)", k, ra, ri, la, li)
		}
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
// in interval partitioning would flip the class.
func boundaryKeys(rng *rand.Rand, r *Rule) []Key {
	base := RandomMatchingKey(rng, r)
	keys := make([]Key, 0, 4*numDims)
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

// TestTableVsTreeClassBench cross-checks the three classifier engines over
// ClassBench-style rule sets: per-rule matching traffic, uniform random
// keys, and adversarial boundary keys sitting on every rule's interval
// edges.
func TestTableVsTreeClassBench(t *testing.T) {
	configs := []GenConfig{
		{Rules: 1, Seed: 9, DenyFraction: 0.5, WildcardBias: 0},
		{Rules: 16, Seed: 1, DenyFraction: 0.3, WildcardBias: 0.25},
		{Rules: 200, Seed: 2, DenyFraction: 0.3, WildcardBias: 0.25},
		{Rules: 700, Seed: 3, DenyFraction: 0.3, WildcardBias: 0.6},
	}
	for _, cfg := range configs {
		l := Generate(cfg)
		tab := CompileTable(l)
		tree := BuildTree(l, 8)
		rng := rand.New(rand.NewSource(cfg.Seed * 977))
		for i := range l.Rules {
			compareEngines(t, l, tab, tree, RandomMatchingKey(rng, &l.Rules[i]))
			for _, k := range boundaryKeys(rng, &l.Rules[i]) {
				compareEngines(t, l, tab, tree, k)
			}
		}
		for i := 0; i < 500; i++ {
			compareEngines(t, l, tab, tree, Key{
				Src: netpkt.IPv4Addr(rng.Uint32()), Dst: netpkt.IPv4Addr(rng.Uint32()),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				Proto: netpkt.IPProto(rng.Intn(256)),
			})
		}
	}
}

// TestTableEmptyList: a ruleless table must return the default action at
// the baseline cost without touching any bit-vectors.
func TestTableEmptyList(t *testing.T) {
	l := &List{DefaultAction: Deny}
	tab := CompileTable(l)
	a, i, cost := tab.Match(Key{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4})
	if a != Deny || i != -1 {
		t.Fatalf("empty table matched (%v,%d); want (Deny,-1)", a, i)
	}
	if cost != int(numDims) {
		t.Fatalf("empty table cost %d; want %d", cost, numDims)
	}
	if tab.Words() != 0 || tab.MemBytes() == 0 {
		t.Fatalf("empty table Words=%d MemBytes=%d", tab.Words(), tab.MemBytes())
	}
}

// TestTableFirstMatchWins: with a specific rule shadowed by a later
// broader rule, the table must report the earlier (higher-priority) index.
func TestTableFirstMatchWins(t *testing.T) {
	l := &List{
		DefaultAction: Permit,
		Rules: []Rule{
			{SrcAddr: 0x0a000000, SrcPlen: 8, SrcPort: AnyPort, DstPort: PortRange{80, 80}, ProtoAny: true, Action: Deny},
			{SrcAddr: 0x0a000000, SrcPlen: 8, SrcPort: AnyPort, DstPort: AnyPort, ProtoAny: true, Action: Permit},
		},
	}
	tab := CompileTable(l)
	if a, i, _ := tab.Match(Key{Src: 0x0a010203, DstPort: 80}); a != Deny || i != 0 {
		t.Fatalf("shadowed rule: got (%v,%d); want (Deny,0)", a, i)
	}
	if a, i, _ := tab.Match(Key{Src: 0x0a010203, DstPort: 81}); a != Permit || i != 1 {
		t.Fatalf("fallthrough rule: got (%v,%d); want (Permit,1)", a, i)
	}
	if tab.Classes(DimDstPort) < 2 {
		t.Fatalf("DstPort classes = %d; want >= 2", tab.Classes(DimDstPort))
	}
}

// TestTableWideList exercises the multi-word bit-vector path (>64 rules →
// words > 1) including the early-exit scan.
func TestTableWideList(t *testing.T) {
	l := Generate(DefaultGenConfig(300, 41))
	tab := CompileTable(l)
	if tab.Words() != (300+63)/64 {
		t.Fatalf("Words=%d", tab.Words())
	}
	rng := rand.New(rand.NewSource(41))
	for i := range l.Rules {
		compareEngines(t, l, tab, nil, RandomMatchingKey(rng, &l.Rules[i]))
	}
}

// FuzzTableVsTree is the equivalence fuzz harness gating the compiled
// decision table: every generated rule set and key (fuzz-chosen plus
// rule-derived boundary probes) must classify identically under the table,
// the tree, and the linear reference.
func FuzzTableVsTree(f *testing.F) {
	f.Add(int64(1), uint8(16), uint32(0x01020304), uint32(0x05060708), uint16(80), uint16(443), uint8(6))
	f.Add(int64(7), uint8(1), uint32(0), uint32(0xffffffff), uint16(0), uint16(65535), uint8(0))
	f.Add(int64(42), uint8(200), uint32(0x0a000001), uint32(0x0a000002), uint16(53), uint16(53), uint8(17))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, src, dst uint32, sp, dp uint16, proto uint8) {
		if n == 0 {
			n = 1
		}
		cfg := DefaultGenConfig(int(n), seed)
		cfg.WildcardBias = float64(n%4) * 0.2 // vary overlap density with the corpus
		l := Generate(cfg)
		tab := CompileTable(l)
		tree := BuildTree(l, 4)

		compareEngines(t, l, tab, tree, Key{
			Src: netpkt.IPv4Addr(src), Dst: netpkt.IPv4Addr(dst),
			SrcPort: sp, DstPort: dp, Proto: netpkt.IPProto(proto),
		})
		rng := rand.New(rand.NewSource(seed))
		probe := l.Rules[int(n)%len(l.Rules)]
		compareEngines(t, l, tab, tree, RandomMatchingKey(rng, &probe))
		for _, k := range boundaryKeys(rng, &probe) {
			compareEngines(t, l, tab, tree, k)
		}
	})
}

// TestTableAndTreeSharedAcrossGoroutines: firewall replicas share one
// classifier (nf.NewFirewall builds the tree once per NF), so Match must
// write nothing — concurrent lookups agree with the linear reference, and
// under -race any write to the shared classifier is reported.
func TestTableAndTreeSharedAcrossGoroutines(t *testing.T) {
	l := Generate(DefaultGenConfig(300, 5))
	tab, tree := CompileTable(l), BuildTree(l, 8)
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
				ta, ti, _ := tab.Match(k)
				ra, ri, _ := tree.Match(k)
				if ta != la || ti != li || ra != la || ri != li {
					errs <- fmt.Sprintf("key %+v: table (%v,%d) tree (%v,%d) linear (%v,%d)", k, ta, ti, ra, ri, la, li)
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
