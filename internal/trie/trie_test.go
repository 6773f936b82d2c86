package trie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nfcompass/internal/netpkt"
)

func TestIPv4TrieBasic(t *testing.T) {
	var tr IPv4Trie
	mustInsert4 := func(addr netpkt.IPv4Addr, plen int, hop NextHop) {
		t.Helper()
		if err := tr.Insert(addr, plen, hop); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert4(0x0a000000, 8, 1)  // 10.0.0.0/8 -> 1
	mustInsert4(0x0a010000, 16, 2) // 10.1.0.0/16 -> 2
	mustInsert4(0x0a010100, 24, 3) // 10.1.1.0/24 -> 3
	mustInsert4(0xc0a80000, 16, 4) // 192.168.0.0/16 -> 4
	mustInsert4(0x00000000, 0, 9)  // default -> 9

	cases := []struct {
		addr netpkt.IPv4Addr
		want NextHop
	}{
		{0x0a020304, 1}, // 10.2.3.4 -> /8
		{0x0a010203, 2}, // 10.1.2.3 -> /16
		{0x0a010117, 3}, // 10.1.1.23 -> /24
		{0xc0a80101, 4}, // 192.168.1.1 -> /16
		{0x08080808, 9}, // 8.8.8.8 -> default
	}
	for _, c := range cases {
		if got := tr.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.addr, got, c.want)
		}
	}
	if tr.n != 5 {
		t.Errorf("Len = %d, want 5", tr.n)
	}
}

func TestIPv4TrieErrors(t *testing.T) {
	var tr IPv4Trie
	if err := tr.Insert(0, 33, 1); err == nil {
		t.Error("accepted plen 33")
	}
	if err := tr.Insert(0, -1, 1); err == nil {
		t.Error("accepted plen -1")
	}
	if err := tr.Insert(0, 8, 0); err == nil {
		t.Error("accepted hop 0")
	}
}

func TestIPv4TrieReplace(t *testing.T) {
	var tr IPv4Trie
	_ = tr.Insert(0x0a000000, 8, 1)
	_ = tr.Insert(0x0a000000, 8, 7)
	if tr.n != 1 {
		t.Errorf("Len = %d after replace", tr.n)
	}
	if got := tr.Lookup(0x0a000001); got != 7 {
		t.Errorf("Lookup = %d, want 7", got)
	}
}

func TestIPv4LookupEmptyTrie(t *testing.T) {
	var tr IPv4Trie
	if got := tr.Lookup(0x01020304); got != 0 {
		t.Errorf("Lookup on empty trie = %d", got)
	}
}

// randomRoutes4 generates n random routes with realistic length skew.
func randomRoutes4(rng *rand.Rand, n int) []struct {
	addr netpkt.IPv4Addr
	plen int
	hop  NextHop
} {
	lengths := []int{8, 12, 16, 16, 20, 24, 24, 24, 28, 32}
	routes := make([]struct {
		addr netpkt.IPv4Addr
		plen int
		hop  NextHop
	}, n)
	for i := range routes {
		plen := lengths[rng.Intn(len(lengths))]
		addr := netpkt.IPv4Addr(rng.Uint32())
		if plen < 32 {
			addr &= ^netpkt.IPv4Addr(1<<(32-plen) - 1)
		}
		routes[i].addr = addr
		routes[i].plen = plen
		routes[i].hop = NextHop(rng.Intn(255) + 1)
	}
	return routes
}

func TestDir24_8MatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tr IPv4Trie
	for _, r := range randomRoutes4(rng, 500) {
		if err := tr.Insert(r.addr, r.plen, r.hop); err != nil {
			t.Fatal(err)
		}
	}
	_ = tr.Insert(0, 0, 200) // default route
	d := BuildDir24_8(&tr)
	for i := 0; i < 20000; i++ {
		addr := netpkt.IPv4Addr(rng.Uint32())
		if got, want := d.Lookup(addr), tr.Lookup(addr); got != want {
			t.Fatalf("Dir24_8.Lookup(%v) = %d, trie says %d", addr, got, want)
		}
	}
}

func TestDir24_8MemoryAccesses(t *testing.T) {
	var tr IPv4Trie
	_ = tr.Insert(0x0a000000, 8, 1)
	_ = tr.Insert(0x0a000080, 26, 2) // long prefix forces a spill block
	d := BuildDir24_8(&tr)
	if got := d.MemoryAccesses(0x0b000001); got != 1 {
		t.Errorf("short path accesses = %d, want 1", got)
	}
	if got := d.MemoryAccesses(0x0a000081); got != 2 {
		t.Errorf("long path accesses = %d, want 2", got)
	}
	if got := d.Lookup(0x0a000081); got != 2 {
		t.Errorf("Lookup long = %d, want 2", got)
	}
	if got := d.Lookup(0x0a000001); got != 1 {
		t.Errorf("Lookup short within spilled /24 = %d, want 1", got)
	}
}

func TestIPv6TrieBasic(t *testing.T) {
	var tr IPv6Trie
	p1 := netpkt.IPv6Addr{Hi: 0x2001_0db8_0000_0000}
	if err := tr.Insert(p1, 32, 1); err != nil {
		t.Fatal(err)
	}
	p2 := netpkt.IPv6Addr{Hi: 0x2001_0db8_0001_0000}
	if err := tr.Insert(p2, 48, 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(netpkt.IPv6Addr{}, 0, 9); err != nil {
		t.Fatal(err)
	}

	a := netpkt.IPv6Addr{Hi: 0x2001_0db8_0001_0000, Lo: 5}
	if got := tr.Lookup(a); got != 2 {
		t.Errorf("Lookup = %d, want 2", got)
	}
	b := netpkt.IPv6Addr{Hi: 0x2001_0db8_0099_0000}
	if got := tr.Lookup(b); got != 1 {
		t.Errorf("Lookup = %d, want 1", got)
	}
	c := netpkt.IPv6Addr{Hi: 0xfe80_0000_0000_0000}
	if got := tr.Lookup(c); got != 9 {
		t.Errorf("Lookup = %d, want 9 (default)", got)
	}
}

func TestIPv6TrieErrors(t *testing.T) {
	var tr IPv6Trie
	if err := tr.Insert(netpkt.IPv6Addr{}, 129, 1); err == nil {
		t.Error("accepted plen 129")
	}
	if err := tr.Insert(netpkt.IPv6Addr{}, 64, 0); err == nil {
		t.Error("accepted hop 0")
	}
}

func randomRoutes6(rng *rand.Rand, n int) []struct {
	addr netpkt.IPv6Addr
	plen int
	hop  NextHop
} {
	lengths := []int{16, 32, 32, 48, 48, 48, 56, 64, 64, 128}
	routes := make([]struct {
		addr netpkt.IPv6Addr
		plen int
		hop  NextHop
	}, n)
	for i := range routes {
		plen := lengths[rng.Intn(len(lengths))]
		addr := netpkt.IPv6Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}.Mask(plen)
		routes[i].addr = addr
		routes[i].plen = plen
		routes[i].hop = NextHop(rng.Intn(255) + 1)
	}
	return routes
}

func TestV6HashLPMMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var tr IPv6Trie
	routes := randomRoutes6(rng, 300)
	for _, r := range routes {
		if err := tr.Insert(r.addr, r.plen, r.hop); err != nil {
			t.Fatal(err)
		}
	}
	h := BuildV6HashLPM(&tr)

	// Probe both random addresses and addresses derived from inserted
	// prefixes (guaranteeing deep matches).
	for i := 0; i < 5000; i++ {
		var addr netpkt.IPv6Addr
		if i%2 == 0 {
			addr = netpkt.IPv6Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}
		} else {
			r := routes[rng.Intn(len(routes))]
			addr = r.addr
			addr.Lo |= rng.Uint64() & (1<<uint(128-max(r.plen, 64)) - 1)
		}
		if got, want := h.Lookup(addr), tr.Lookup(addr); got != want {
			t.Fatalf("V6HashLPM.Lookup(%v) = %d, trie says %d", addr, got, want)
		}
	}
}

func TestV6HashLPMProbeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tr IPv6Trie
	for _, r := range randomRoutes6(rng, 500) {
		_ = tr.Insert(r.addr, r.plen, r.hop)
	}
	h := BuildV6HashLPM(&tr)
	// Binary search over at most 10 distinct lengths probes at most
	// ceil(log2(10))+1 = 5 tables; the paper quotes "up to 7" for real
	// tables. Verify the bound holds.
	for i := 0; i < 1000; i++ {
		h.Lookup(netpkt.IPv6Addr{Hi: rng.Uint64(), Lo: rng.Uint64()})
		if h.LastProbes() > 7 {
			t.Fatalf("lookup used %d probes", h.LastProbes())
		}
	}
}

func TestV6HashLPMEmpty(t *testing.T) {
	var tr IPv6Trie
	h := BuildV6HashLPM(&tr)
	if got := h.Lookup(netpkt.IPv6Addr{Hi: 1}); got != 0 {
		t.Errorf("Lookup on empty = %d", got)
	}
}

// TestIPv4TriePropertyMostSpecificWins: inserting a more specific prefix
// never changes lookups outside it, and always wins inside it.
func TestIPv4TriePropertyMostSpecificWins(t *testing.T) {
	f := func(base uint32, sub uint8) bool {
		var tr IPv4Trie
		short := mask4(netpkt.IPv4Addr(base), 16)
		long := mask4(netpkt.IPv4Addr(base), 24)
		_ = tr.Insert(short, 16, 1)
		_ = tr.Insert(long, 24, 2)
		inside := netpkt.IPv4Addr(uint32(long) | uint32(sub))
		// Flip bit 9 (inside the /24 prefix region but below the /16
		// boundary): guaranteed outside the /24, still inside the /16.
		outside := netpkt.IPv4Addr(uint32(inside) ^ 1<<9)
		return tr.Lookup(inside) == 2 && tr.Lookup(outside) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mask4 masks an IPv4 address to its leading plen bits (test helper).
func mask4(a netpkt.IPv4Addr, plen int) netpkt.IPv4Addr {
	if plen >= 32 {
		return a
	}
	return a &^ netpkt.IPv4Addr(1<<(32-plen)-1)
}

func BenchmarkDir24_8Lookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var tr IPv4Trie
	for _, r := range randomRoutes4(rng, 1000) {
		_ = tr.Insert(r.addr, r.plen, r.hop)
	}
	_ = tr.Insert(0, 0, 9)
	d := BuildDir24_8(&tr)
	addrs := make([]netpkt.IPv4Addr, 1024)
	for i := range addrs {
		addrs[i] = netpkt.IPv4Addr(rng.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkV6HashLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var tr IPv6Trie
	for _, r := range randomRoutes6(rng, 500) {
		_ = tr.Insert(r.addr, r.plen, r.hop)
	}
	h := BuildV6HashLPM(&tr)
	addrs := make([]netpkt.IPv6Addr, 1024)
	for i := range addrs {
		addrs[i] = netpkt.IPv6Addr{Hi: rng.Uint64(), Lo: rng.Uint64()}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Lookup(addrs[i%len(addrs)])
	}
}
