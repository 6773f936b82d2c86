package trie

import (
	"fmt"

	"nfcompass/internal/netpkt"
)

// IPv6Trie is a binary trie over IPv6 prefixes: the reference LPM oracle
// for IPv6.
type IPv6Trie struct {
	root *v6node
	n    int
}

type v6node struct {
	child [2]*v6node
	hop   NextHop
}

// Insert adds or replaces the route addr/plen -> hop. hop must be nonzero.
func (t *IPv6Trie) Insert(addr netpkt.IPv6Addr, plen int, hop NextHop) error {
	if plen < 0 || plen > 128 {
		return fmt.Errorf("trie: bad ipv6 prefix length %d", plen)
	}
	if hop == 0 {
		return fmt.Errorf("trie: next hop 0 is reserved")
	}
	if t.root == nil {
		t.root = &v6node{}
	}
	n := t.root
	for i := 0; i < plen; i++ {
		b := addr.Bit(i)
		if n.child[b] == nil {
			n.child[b] = &v6node{}
		}
		n = n.child[b]
	}
	if n.hop == 0 {
		t.n++
	}
	n.hop = hop
	return nil
}

// Lookup returns the next hop of the longest matching prefix, or 0.
func (t *IPv6Trie) Lookup(addr netpkt.IPv6Addr) NextHop {
	best := NextHop(0)
	n := t.root
	for i := 0; n != nil; i++ {
		if n.hop != 0 {
			best = n.hop
		}
		if i == 128 {
			break
		}
		n = n.child[addr.Bit(i)]
	}
	return best
}

// LookupCapped returns the next hop of the longest matching prefix with
// length at most maxLen, or 0. The hash LPM builder uses it to compute
// marker best-matching-prefix values.
func (t *IPv6Trie) LookupCapped(addr netpkt.IPv6Addr, maxLen int) NextHop {
	best := NextHop(0)
	n := t.root
	for i := 0; n != nil && i <= maxLen; i++ {
		if n.hop != 0 {
			best = n.hop
		}
		if i == 128 {
			break
		}
		n = n.child[addr.Bit(i)]
	}
	return best
}

// PrefixLengths returns the sorted distinct prefix lengths present.
func (t *IPv6Trie) PrefixLengths() []int {
	present := make([]bool, 129)
	var rec func(n *v6node, depth int)
	rec = func(n *v6node, depth int) {
		if n == nil {
			return
		}
		if n.hop != 0 {
			present[depth] = true
		}
		if depth < 128 {
			rec(n.child[0], depth+1)
			rec(n.child[1], depth+1)
		}
	}
	rec(t.root, 0)
	var out []int
	for l, ok := range present {
		if ok {
			out = append(out, l)
		}
	}
	return out
}

// V6HashLPM performs IPv6 LPM by binary search over hash tables keyed by
// prefix length (Waldvogel's scheme, the "up to 7 memory lookups" +
// "hashing ... binary search" structure the paper attributes to IPv6
// forwarding). Markers steer the binary search toward longer prefixes;
// each marker carries the best-matching-prefix result accumulated so far so
// a failed longer probe can fall back without re-searching.
type V6HashLPM struct {
	lengths []int                       // sorted distinct prefix lengths
	tables  []map[netpkt.IPv6Addr]entry // one hash table per length
	probes  int                         // statistics: probes by last Lookup
}

type entry struct {
	hop    NextHop // 0 = pure marker
	bmpHop NextHop // best matching prefix at or above this marker
}

// BuildV6HashLPM compiles a trie into the binary-search-on-lengths scheme.
func BuildV6HashLPM(t *IPv6Trie) *V6HashLPM {
	h := &V6HashLPM{lengths: t.PrefixLengths()}
	h.tables = make([]map[netpkt.IPv6Addr]entry, len(h.lengths))
	for i := range h.tables {
		h.tables[i] = make(map[netpkt.IPv6Addr]entry)
	}
	if len(h.lengths) == 0 {
		return h
	}

	idxOf := make(map[int]int, len(h.lengths))
	for i, l := range h.lengths {
		idxOf[l] = i
	}

	// Insert real prefixes.
	type route struct {
		addr netpkt.IPv6Addr
		plen int
		hop  NextHop
	}
	var routes []route
	var rec func(n *v6node, addr netpkt.IPv6Addr, depth int)
	rec = func(n *v6node, addr netpkt.IPv6Addr, depth int) {
		if n == nil {
			return
		}
		if n.hop != 0 {
			routes = append(routes, route{addr, depth, n.hop})
		}
		if depth < 128 {
			rec(n.child[0], addr, depth+1)
			next := addr
			if depth < 64 {
				next.Hi |= 1 << (63 - depth)
			} else {
				next.Lo |= 1 << (127 - depth)
			}
			rec(n.child[1], next, depth+1)
		}
	}
	rec(t.root, netpkt.IPv6Addr{}, 0)

	for _, r := range routes {
		i := idxOf[r.plen]
		e := h.tables[i][r.addr]
		e.hop = r.hop
		h.tables[i][r.addr] = e
	}

	// Insert markers: for each prefix, at every length the binary search
	// would probe before reaching it, leave a marker carrying the best
	// matching prefix known at that point.
	for _, r := range routes {
		lo, hi := 0, len(h.lengths)-1
		for lo <= hi {
			mid := (lo + hi) / 2
			ml := h.lengths[mid]
			switch {
			case ml == r.plen:
				lo = len(h.lengths) // done
			case ml < r.plen:
				key := r.addr.Mask(ml)
				e := h.tables[mid][key]
				// The marker's bmp is the longest real prefix of
				// r.addr with length <= ml; compute via the trie-free
				// route list later — here record provisionally and fix
				// in the pass below.
				h.tables[mid][key] = e
				lo = mid + 1
			default:
				hi = mid - 1
			}
		}
	}

	// Fill bmpHop for every entry (real or marker): the longest real
	// prefix of the key with length at most the entry's own length. Any
	// query address that hits this entry agrees with the key on its first
	// l bits, so this capped lookup is its exact best match at or below l.
	for i, l := range h.lengths {
		for key, e := range h.tables[i] {
			e.bmpHop = t.LookupCapped(key, l)
			h.tables[i][key] = e
		}
	}
	return h
}

// Lookup returns the next hop of the longest matching prefix, or 0.
func (h *V6HashLPM) Lookup(addr netpkt.IPv6Addr) NextHop {
	h.probes = 0
	best := NextHop(0)
	lo, hi := 0, len(h.lengths)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		l := h.lengths[mid]
		h.probes++
		e, ok := h.tables[mid][addr.Mask(l)]
		if ok {
			if e.bmpHop != 0 {
				best = e.bmpHop
			}
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// LastProbes reports the hash probes used by the most recent Lookup; the
// simulator's IPv6 cost model consumes it.
func (h *V6HashLPM) LastProbes() int { return h.probes }
