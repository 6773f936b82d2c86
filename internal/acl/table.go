package acl

// Compiled flat decision table — the ahead-of-time alternative to the
// HiCuts tree. CompileTable projects every rule onto each of the five
// dimensions, partitions each axis into the equivalence intervals induced
// by the rule boundaries, and attaches to every interval the bit-vector of
// rules whose projection covers it (the Lucent bit-vector scheme). A
// lookup is then an index walk, not a tree traversal: one direct array
// read per port/protocol dimension, one binary search per address
// dimension, and a word-by-word AND of the five rule bit-vectors whose
// first set bit IS the highest-priority match — rule i's bit survives the
// AND exactly when all five per-dimension containment tests pass, i.e.
// exactly when Rule.Matches holds, and the lowest set bit is the lowest
// rule index, so first-match-wins falls out of the representation with no
// priority bookkeeping.
//
// Build cost is O(rules × intervals) per dimension and the table pins a
// few hundred KB of lookup arrays; both are paid once at configuration
// time, which is the trade the paper's consolidation makes throughout:
// spend at deployment, save per packet. Per-lookup cost is flat in rule
// overlap where the tree's depth (and the Fig. 17 blowup) is not.

import (
	"math"
	"math/bits"
	"sort"
)

// Classifier is the packet-classification engine interface. Both the
// HiCuts tree and the compiled decision table implement it, so the
// firewall elements can swap engines without changing semantics: Match
// returns the action, the matching rule index (-1 for the default), first
// match wins, and the lookup's memory touches for the platform cost model.
// Match writes nothing, so replicas may share one classifier.
type Classifier interface {
	Match(k Key) (Action, int, int)
}

var (
	_ Classifier = (*Tree)(nil)
	_ Classifier = (*Table)(nil)
)

// Table is a compiled flat decision table over a rule list. Build it with
// CompileTable; the zero value is not usable. Lookups mutate nothing, so a
// Table is shareable once built (same contract as Tree).
type Table struct {
	list  *List
	words int
	// bits holds each dimension's equivalence-class bit-vectors, flattened
	// with stride words: class c of dimension d is
	// bits[d][c*words:(c+1)*words], bit i = rule i's projection covers the
	// class's intervals.
	bits [numDims][]uint64
	// Direct per-value class indices for the small axes.
	srcPortCls []uint32 // len 65536
	dstPortCls []uint32 // len 65536
	protoCls   []uint32 // len 256
	// Address axes: sorted interval lower bounds + the interval's class.
	srcBase []uint32
	srcCls  []uint32
	dstBase []uint32
	dstCls  []uint32
}

// dimMax is the inclusive upper bound of each dimension's value space.
func dimMax(d Dimension) uint64 {
	switch d {
	case DimSrcAddr, DimDstAddr:
		return math.MaxUint32
	case DimSrcPort, DimDstPort:
		return 65535
	default:
		return 255
	}
}

// projectRule projects rule r onto dimension d as an inclusive interval —
// the shared geometry both classifier engines cut the 5-tuple space with.
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

// CompileTable builds the flat decision table for l. The list is captured
// by reference (like BuildTree) and must not be mutated afterwards.
func CompileTable(l *List) *Table {
	t := &Table{list: l, words: (len(l.Rules) + 63) / 64}
	for d := Dimension(0); d < numDims; d++ {
		bases, classes := t.compileDim(l, d)
		switch d {
		case DimSrcAddr:
			t.srcBase, t.srcCls = bases, classes
		case DimDstAddr:
			t.dstBase, t.dstCls = bases, classes
		case DimSrcPort:
			t.srcPortCls = scatter(bases, classes, 65536)
		case DimDstPort:
			t.dstPortCls = scatter(bases, classes, 65536)
		default:
			t.protoCls = scatter(bases, classes, 256)
		}
	}
	return t
}

// compileDim partitions dimension d into the equivalence intervals induced
// by the rule projections and assigns each interval a deduplicated
// bit-vector class. Returns the sorted interval lower bounds and each
// interval's class index; the class bodies land in t.bits[d].
func (t *Table) compileDim(l *List, d Dimension) (bases []uint32, classes []uint32) {
	max := dimMax(d)
	pts := make([]uint64, 0, 2*len(l.Rules)+1)
	pts = append(pts, 0)
	for i := range l.Rules {
		lo, hi := projectRule(&l.Rules[i], d)
		pts = append(pts, lo)
		if hi < max {
			pts = append(pts, hi+1)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	// Dedup in place.
	uniq := pts[:1]
	for _, p := range pts[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}

	seen := make(map[string]uint32)
	key := make([]byte, 8*t.words)
	bases = make([]uint32, len(uniq))
	classes = make([]uint32, len(uniq))
	for ii, start := range uniq {
		bv := make([]uint64, t.words)
		for ri := range l.Rules {
			lo, hi := projectRule(&l.Rules[ri], d)
			if lo <= start && start <= hi {
				bv[ri/64] |= 1 << (ri % 64)
			}
		}
		for w, v := range bv {
			for b := 0; b < 8; b++ {
				key[8*w+b] = byte(v >> (8 * b))
			}
		}
		cls, ok := seen[string(key)]
		if !ok {
			cls = uint32(len(t.bits[d]) / maxInt(t.words, 1))
			if t.words == 0 {
				cls = 0
			}
			seen[string(key)] = cls
			t.bits[d] = append(t.bits[d], bv...)
		}
		bases[ii] = uint32(start)
		classes[ii] = cls
	}
	return bases, classes
}

// scatter expands interval (base, class) pairs into a direct per-value
// index array for the small axes, where a lookup becomes a single load.
func scatter(bases []uint32, classes []uint32, size int) []uint32 {
	direct := make([]uint32, size)
	for i, base := range bases {
		end := size
		if i+1 < len(bases) {
			end = int(bases[i+1])
		}
		for v := int(base); v < end; v++ {
			direct[v] = classes[i]
		}
	}
	return direct
}

// intervalIndex returns the interval containing v: the greatest i with
// bases[i] <= v. bases[0] is always 0, so the search is total.
func intervalIndex(bases []uint32, v uint32) int {
	lo, hi := 0, len(bases)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if bases[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Match classifies k: five per-dimension class lookups, then an AND-scan
// over the class bit-vectors that stops at the first surviving rule bit —
// which is the highest-priority match by construction. Equivalent to
// MatchLinear (and therefore to Tree.Match) on every key. The cost it
// returns is the decision-table words scanned plus the five dimension
// lookups — the memory-access count the platform cost model charges,
// comparable with Tree.Match's.
func (t *Table) Match(k Key) (Action, int, int) {
	cost := int(numDims)
	if t.words == 0 {
		return t.list.DefaultAction, -1, cost
	}
	w := t.words
	sa := t.bits[DimSrcAddr][int(t.srcCls[intervalIndex(t.srcBase, uint32(k.Src))])*w:]
	da := t.bits[DimDstAddr][int(t.dstCls[intervalIndex(t.dstBase, uint32(k.Dst))])*w:]
	sp := t.bits[DimSrcPort][int(t.srcPortCls[k.SrcPort])*w:]
	dp := t.bits[DimDstPort][int(t.dstPortCls[k.DstPort])*w:]
	pr := t.bits[DimProto][int(t.protoCls[k.Proto])*w:]
	for i := 0; i < w; i++ {
		cost++
		if m := sa[i] & da[i] & sp[i] & dp[i] & pr[i]; m != 0 {
			ri := i*64 + bits.TrailingZeros64(m)
			return t.list.Rules[ri].Action, ri, cost
		}
	}
	return t.list.DefaultAction, -1, cost
}

// Words returns the bit-vector width in 64-bit words (⌈rules/64⌉).
func (t *Table) Words() int { return t.words }

// Classes returns dimension d's deduplicated equivalence-class count.
func (t *Table) Classes(d Dimension) int {
	if t.words == 0 {
		return 0
	}
	return len(t.bits[d]) / t.words
}

// MemBytes returns the table's resident lookup-structure size: the class
// bit-vectors plus the per-dimension index arrays.
func (t *Table) MemBytes() int {
	total := 0
	for d := Dimension(0); d < numDims; d++ {
		total += 8 * len(t.bits[d])
	}
	total += 4 * (len(t.srcPortCls) + len(t.dstPortCls) + len(t.protoCls))
	total += 4 * (len(t.srcBase) + len(t.srcCls) + len(t.dstBase) + len(t.dstCls))
	return total
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
