// Package trie implements the longest-prefix-match structures used by the
// IPv4 and IPv6 forwarders: a binary trie and a DIR-24-8-style flat lookup
// table for IPv4 (the "two memory accesses" structure the paper describes),
// and a path-compressed binary trie plus binary-search-on-prefix-lengths
// hash scheme for IPv6 (up to 7 probes, per the paper's characterization).
package trie

import (
	"fmt"

	"nfcompass/internal/netpkt"
)

// NextHop identifies a forwarding destination (port / neighbour index).
// Zero is reserved for "no route".
type NextHop uint32

// IPv4Trie is a binary (unibit) trie over IPv4 prefixes. It is the
// reference structure: simple, exact, and the oracle the property tests
// compare the DIR-24-8 table against.
type IPv4Trie struct {
	root *v4node
	n    int
}

type v4node struct {
	child [2]*v4node
	hop   NextHop // 0 = no prefix ends here
}

// Insert adds or replaces the route addr/plen -> hop. hop must be nonzero.
func (t *IPv4Trie) Insert(addr netpkt.IPv4Addr, plen int, hop NextHop) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("trie: bad ipv4 prefix length %d", plen)
	}
	if hop == 0 {
		return fmt.Errorf("trie: next hop 0 is reserved")
	}
	if t.root == nil {
		t.root = &v4node{}
	}
	n := t.root
	for i := 0; i < plen; i++ {
		b := uint32(addr) >> (31 - i) & 1
		if n.child[b] == nil {
			n.child[b] = &v4node{}
		}
		n = n.child[b]
	}
	if n.hop == 0 {
		t.n++
	}
	n.hop = hop
	return nil
}

// Lookup returns the next hop of the longest matching prefix for addr, or
// 0 when no route matches.
func (t *IPv4Trie) Lookup(addr netpkt.IPv4Addr) NextHop {
	best := NextHop(0)
	n := t.root
	for i := 0; n != nil; i++ {
		if n.hop != 0 {
			best = n.hop
		}
		if i == 32 {
			break
		}
		n = n.child[uint32(addr)>>(31-i)&1]
	}
	return best
}

// Walk visits every prefix in the trie in lexicographic order.
func (t *IPv4Trie) Walk(visit func(addr netpkt.IPv4Addr, plen int, hop NextHop)) {
	var rec func(n *v4node, addr uint32, depth int)
	rec = func(n *v4node, addr uint32, depth int) {
		if n == nil {
			return
		}
		if n.hop != 0 {
			visit(netpkt.IPv4Addr(addr), depth, n.hop)
		}
		if depth == 32 {
			return
		}
		rec(n.child[0], addr, depth+1)
		rec(n.child[1], addr|1<<(31-depth), depth+1)
	}
	rec(t.root, 0, 0)
}

// Dir24_8 is a DIR-24-8-BASIC flat forwarding table: one 16M-entry array
// indexed by the top 24 address bits plus overflow tables for prefixes
// longer than /24. Lookup is one memory access for short prefixes and two
// for long ones — the access pattern the paper's IPv4 forwarder models.
type Dir24_8 struct {
	// tbl24[i] holds either a next hop (high bit clear) or, with the high
	// bit set, an index into tblLong blocks of 256 entries.
	tbl24   []uint32
	tblLong []uint32 // 256-entry blocks for /25../32 prefixes
}

const dirLongFlag = 1 << 31

// BuildDir24_8 compiles the routes of a binary trie into a flat table.
func BuildDir24_8(t *IPv4Trie) *Dir24_8 {
	d := &Dir24_8{tbl24: make([]uint32, 1<<24)}

	// Insert prefixes in increasing length order so longer prefixes
	// overwrite the expansion of shorter ones (controlled prefix
	// expansion).
	type route struct {
		addr netpkt.IPv4Addr
		plen int
		hop  NextHop
	}
	byLen := make([][]route, 33)
	t.Walk(func(addr netpkt.IPv4Addr, plen int, hop NextHop) {
		byLen[plen] = append(byLen[plen], route{addr, plen, hop})
	})
	for plen := 0; plen <= 32; plen++ {
		for _, r := range byLen[plen] {
			d.insert(r.addr, r.plen, r.hop)
		}
	}
	return d
}

func (d *Dir24_8) insert(addr netpkt.IPv4Addr, plen int, hop NextHop) {
	if plen <= 24 {
		base := uint32(addr) >> 8 &^ (1<<(24-plen) - 1)
		count := uint32(1) << (24 - plen)
		for i := uint32(0); i < count; i++ {
			idx := base + i
			if d.tbl24[idx]&dirLongFlag != 0 {
				// A longer prefix already spilled this slot into a
				// long block; fill the block's unset entries instead.
				blk := d.tbl24[idx] &^ dirLongFlag
				for j := 0; j < 256; j++ {
					if d.tblLong[int(blk)*256+j] == 0 {
						d.tblLong[int(blk)*256+j] = uint32(hop)
					}
				}
				continue
			}
			d.tbl24[idx] = uint32(hop)
		}
		return
	}
	idx := uint32(addr) >> 8
	var blk uint32
	if d.tbl24[idx]&dirLongFlag != 0 {
		blk = d.tbl24[idx] &^ dirLongFlag
	} else {
		blk = uint32(len(d.tblLong) / 256)
		fill := d.tbl24[idx] // previous short-prefix hop becomes default
		block := make([]uint32, 256)
		for j := range block {
			block[j] = fill
		}
		d.tblLong = append(d.tblLong, block...)
		d.tbl24[idx] = blk | dirLongFlag
	}
	low := uint32(addr) & 0xff &^ (1<<(32-plen) - 1)
	count := uint32(1) << (32 - plen)
	for i := uint32(0); i < count; i++ {
		d.tblLong[blk*256+low+i] = uint32(hop)
	}
}

// Lookup returns the next hop for addr, or 0 when no route matches.
func (d *Dir24_8) Lookup(addr netpkt.IPv4Addr) NextHop {
	e := d.tbl24[uint32(addr)>>8]
	if e&dirLongFlag == 0 {
		return NextHop(e)
	}
	blk := e &^ dirLongFlag
	return NextHop(d.tblLong[blk*256+uint32(addr)&0xff])
}

// MemoryAccesses reports the number of table reads a lookup of addr costs
// (1 or 2); the simulator's IPv4 cost model uses it.
func (d *Dir24_8) MemoryAccesses(addr netpkt.IPv4Addr) int {
	if d.tbl24[uint32(addr)>>8]&dirLongFlag == 0 {
		return 1
	}
	return 2
}
