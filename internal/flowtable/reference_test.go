package flowtable

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refTable is the model the slab table is held to: a map over a
// container/list, operation for operation what Table documents — LRU
// victim, lazy-TTL rules, OnEvict sequence, recency order.
type refTable struct {
	capacity           int
	m                  map[uint64]*list.Element
	l                  *list.List // front = most recently used
	ttl                int64
	now                func() int64
	evictions, expired uint64
	onEvict            func(key uint64, value int)
}

type refEntry struct {
	key   uint64
	value int
	stamp int64
}

func newRef(capacity int) *refTable {
	if capacity < 1 {
		capacity = 1
	}
	return &refTable{capacity: capacity, m: make(map[uint64]*list.Element), l: list.New()}
}

func (r *refTable) setTTL(ttl int64, now func() int64) {
	r.ttl, r.now = ttl, now
	if ttl > 0 {
		for e := r.l.Front(); e != nil; e = e.Next() {
			e.Value.(*refEntry).stamp = now()
		}
	}
}

func (r *refTable) stale(e *list.Element) bool {
	return r.ttl > 0 && r.now()-e.Value.(*refEntry).stamp > r.ttl
}

func (r *refTable) drop(e *list.Element, counter *uint64) {
	ent := r.l.Remove(e).(*refEntry)
	delete(r.m, ent.key)
	*counter++
	r.onEvict(ent.key, ent.value)
}

func (r *refTable) expireTail(max int) int {
	n := 0
	for n < max && r.l.Back() != nil && r.stale(r.l.Back()) {
		r.drop(r.l.Back(), &r.expired)
		n++
	}
	return n
}

func (r *refTable) touch(e *list.Element) {
	if r.ttl > 0 {
		e.Value.(*refEntry).stamp = r.now()
	}
	r.l.MoveToFront(e)
}

func (r *refTable) get(key uint64) (int, bool) {
	e, ok := r.m[key]
	if !ok {
		return 0, false
	}
	if r.stale(e) {
		r.drop(e, &r.expired)
		return 0, false
	}
	r.touch(e)
	return e.Value.(*refEntry).value, true
}

func (r *refTable) peek(key uint64) (int, bool) {
	e, ok := r.m[key]
	if !ok || r.stale(e) {
		return 0, false
	}
	return e.Value.(*refEntry).value, true
}

func (r *refTable) put(key uint64, value int) {
	if r.ttl > 0 {
		r.expireTail(putExpiryBudget)
	}
	if e, ok := r.m[key]; ok {
		e.Value.(*refEntry).value = value
		r.touch(e)
		return
	}
	if len(r.m) >= r.capacity && r.l.Back() != nil {
		r.drop(r.l.Back(), &r.evictions)
	}
	ent := &refEntry{key: key, value: value}
	if r.ttl > 0 {
		ent.stamp = r.now()
	}
	r.m[key] = r.l.PushFront(ent)
}

func (r *refTable) getOrCreate(key uint64, mk func() int) (int, bool) {
	if v, ok := r.get(key); ok {
		return v, false
	}
	v := mk()
	r.put(key, v)
	return v, true
}

func (r *refTable) reset() {
	r.m = make(map[uint64]*list.Element)
	r.l.Init()
	r.evictions, r.expired = 0, 0
}

// checkStructure asserts what the representation promises beyond what
// callers can observe: every live slot is indexed exactly once, under its
// key's hash tag, and reachable by probing from its home, the index is at
// most half full, and live slots plus free slots account for the whole
// slab.
func checkStructure[V any](t *testing.T, tb *Table[V]) {
	t.Helper()
	if 2*tb.live > len(tb.index) {
		t.Fatalf("index over half full: %d live in %d cells", tb.live, len(tb.index))
	}
	if len(tb.index)&(len(tb.index)-1) != 0 || uint64(len(tb.index)) != 1<<(64-tb.shift) {
		t.Fatalf("index length %d does not match shift %d", len(tb.index), tb.shift)
	}
	indexed := 0
	for c, e := range tb.index {
		if e == 0 {
			continue
		}
		indexed++
		if i := uint32(e); i == 0 || int(i) >= len(tb.slots) || e>>32 != mixKey(tb.slots[i].key)>>32 {
			t.Fatalf("cell %d (%#x): tag does not match slot %d's key", c, e, i)
		}
	}
	listed := 0
	for i := tb.slots[0].next; i != 0; i = tb.slots[i].next {
		listed++
		if got := tb.find(mixKey(tb.slots[i].key), tb.slots[i].key); got != i {
			t.Fatalf("slot %d (key %#x) probes to %d", i, tb.slots[i].key, got)
		}
		if tb.slots[tb.slots[i].next].prev != i {
			t.Fatalf("slot %d: next/prev links disagree", i)
		}
	}
	free := 0
	for i := tb.free; i != 0; i = tb.slots[i].next {
		free++
	}
	if indexed != tb.live || listed != tb.live || tb.live+free != len(tb.slots)-1 {
		t.Fatalf("live=%d indexed=%d listed=%d free=%d slab=%d", tb.live, indexed, listed, free, len(tb.slots)-1)
	}
	if tb.live > tb.capacity {
		t.Fatalf("live %d exceeds capacity %d", tb.live, tb.capacity)
	}
}

type evicted struct {
	key   uint64
	value int
}

// pair runs one operation stream against the table and the model.
type pair struct {
	t        *testing.T
	tb       *Table[int]
	ref      *refTable
	clock    int64
	got, exp []evicted
	step     int
}

func newPair(t *testing.T, capacity int, ttl int64) *pair {
	p := &pair{t: t, tb: New[int](capacity), ref: newRef(capacity)}
	p.tb.OnEvict = func(k uint64, v int) {
		checkStructure(t, p.tb) // "called with the table consistent"
		p.got = append(p.got, evicted{k, v})
	}
	p.ref.onEvict = func(k uint64, v int) { p.exp = append(p.exp, evicted{k, v}) }
	if ttl > 0 {
		p.setTTL(ttl)
	}
	return p
}

func (p *pair) now() int64 { return p.clock }

func (p *pair) setTTL(ttl int64) {
	p.tb.SetTTL(ttl, p.now)
	p.ref.setTTL(ttl, p.now)
}

func (p *pair) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d: %s", p.step, fmt.Sprintf(format, args...))
}

// settle compares everything observable after an operation.
func (p *pair) settle(op string) {
	p.t.Helper()
	p.step++
	if p.tb.Len() != len(p.ref.m) {
		p.failf("%s: Len = %d, model %d", op, p.tb.Len(), len(p.ref.m))
	}
	if p.tb.Evictions != p.ref.evictions || p.tb.Expired != p.ref.expired {
		p.failf("%s: Evictions/Expired = %d/%d, model %d/%d", op,
			p.tb.Evictions, p.tb.Expired, p.ref.evictions, p.ref.expired)
	}
	if len(p.got) != len(p.exp) {
		p.failf("%s: OnEvict fired %v, model %v", op, p.got, p.exp)
	}
	for i := range p.got {
		if p.got[i] != p.exp[i] {
			p.failf("%s: OnEvict #%d = %v, model %v", op, i, p.got[i], p.exp[i])
		}
	}
	p.got, p.exp = p.got[:0], p.exp[:0]
}

func (p *pair) same(op string, v int, ok bool, rv int, rok bool) {
	p.t.Helper()
	if v != rv || ok != rok {
		p.failf("%s = %d,%v, model %d,%v", op, v, ok, rv, rok)
	}
	p.settle(op)
}

func (p *pair) get(k uint64) {
	p.t.Helper()
	v, ok := p.tb.Get(k)
	rv, rok := p.ref.get(k)
	p.same(fmt.Sprintf("Get(%#x)", k), v, ok, rv, rok)
}

func (p *pair) peek(k uint64) {
	p.t.Helper()
	v, ok := p.tb.Peek(k)
	rv, rok := p.ref.peek(k)
	p.same(fmt.Sprintf("Peek(%#x)", k), v, ok, rv, rok)
}

func (p *pair) put(k uint64, v int) {
	p.t.Helper()
	p.tb.Put(k, v)
	p.ref.put(k, v)
	p.settle(fmt.Sprintf("Put(%#x)", k))
}

func (p *pair) getOrCreate(k uint64, nv int) {
	p.t.Helper()
	v, created := p.tb.GetOrCreate(k, func() int { return nv })
	rv, rcreated := p.ref.getOrCreate(k, func() int { return nv })
	p.same(fmt.Sprintf("GetOrCreate(%#x)", k), v, created, rv, rcreated)
}

// expireTail is the sweep Table.ExpireTail runs once per ingress batch and
// Sharded.ExpireTailRange runs on each stripe.
func (p *pair) expireTail(max int) {
	p.t.Helper()
	n, rn := p.tb.ExpireTail(max), p.ref.expireTail(max)
	if n != rn {
		p.failf("expireTail(%d) = %d, model %d", max, n, rn)
	}
	p.settle("expireTail")
}

// expire removes keys the way a flow leaves the table, by going stale: the
// resident entries are refreshed, the clock moves half a TTL on, every
// entry but keys is refreshed again, and once keys alone are past the TTL
// a lookup of each reclaims it. The pair's TTL must be refTTL.
func (p *pair) expire(keys ...uint64) {
	p.t.Helper()
	gone := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		gone[k] = true
	}
	var resident []uint64
	for e := p.ref.l.Front(); e != nil; e = e.Next() {
		resident = append(resident, e.Value.(*refEntry).key)
	}
	for _, k := range resident {
		p.get(k)
	}
	p.clock += refTTL/2 + 1
	for _, k := range resident {
		if !gone[k] {
			p.get(k)
		}
	}
	p.clock += refTTL / 2
	for _, k := range keys {
		p.get(k)
	}
}

func (p *pair) reset() {
	p.t.Helper()
	p.tb.Reset()
	p.ref.reset()
	p.settle("Reset")
}

// ranged compares the full MRU→LRU order, walked through the slab, and the
// table's structure.
func (p *pair) ranged() {
	p.t.Helper()
	e := p.ref.l.Front()
	n := 0
	for i := p.tb.slots[0].next; i != 0; i = p.tb.slots[i].next {
		s := &p.tb.slots[i]
		if e == nil {
			p.failf("LRU list holds more than the model's %d entries", n)
		}
		if ent := e.Value.(*refEntry); ent.key != s.key || ent.value != s.value {
			p.failf("LRU #%d = %#x:%d, model %#x:%d", n, s.key, s.value, ent.key, ent.value)
		}
		e = e.Next()
		n++
	}
	if e != nil {
		p.failf("LRU list ends after %d of %d", n, p.ref.l.Len())
	}
	checkStructure(p.t, p.tb)
	p.settle("order")
}

// mru lists a table's keys from most to least recently used.
func mru[V any](tb *Table[V]) []uint64 {
	var keys []uint64
	for i := tb.slots[0].next; i != 0; i = tb.slots[i].next {
		keys = append(keys, tb.slots[i].key)
	}
	return keys
}

// refKey maps an operation's key byte onto a universe a little wider than
// the largest capacity tested, with both extremes of the key space in it.
func refKey(b byte, wide bool) uint64 {
	switch {
	case b == 255:
		return ^uint64(0)
	case wide:
		return uint64(b) * 3 // 0, 3, …, 762: wider than capacity 200
	default:
		return uint64(b % 48)
	}
}

// runOps decodes data as an operation stream — three bytes an operation —
// and replays it through a pair. It is the body of both the seeded table
// test and the fuzz target.
func runOps(t *testing.T, capacity int, ttl int64, data []byte) {
	p := newPair(t, capacity, ttl)
	wide := capacity > 40
	for ; len(data) >= 3; data = data[3:] {
		op, k, arg := data[0], refKey(data[1], wide), int(data[2])
		switch op % 16 {
		case 0, 1, 2:
			p.get(k)
		case 3, 4, 5:
			p.put(k, arg)
		case 6, 7, 8, 9:
			p.getOrCreate(k, arg)
		case 10:
			p.peek(k)
		case 11, 12:
			p.expireTail(arg % 8)
		case 13:
			p.clock += int64(arg % 24) // against a TTL of 16: some go stale, some do not
		case 14:
			p.ranged()
		case 15:
			switch arg % 16 {
			case 0:
				p.reset()
			case 1: // re-arming the TTL restamps every resident entry
				p.setTTL(16)
			case 2:
				p.setTTL(0)
			}
		}
	}
	p.ranged()
}

const refTTL = 16

func TestTableVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for capacity := 1; capacity <= 200; capacity++ {
		for _, ttl := range []int64{0, refTTL} {
			data := make([]byte, 3*1500)
			rng.Read(data)
			runOps(t, capacity, ttl, data)
		}
	}
}

func FuzzTableVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []uint8{0, 1, 3, 16, 199} {
		data := make([]byte, 3*400)
		rng.Read(data)
		f.Add(capacity, capacity%2 == 0, data)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ttl bool, data []byte) {
		var ttlv int64
		if ttl {
			ttlv = refTTL
		}
		runOps(t, int(capacity)%200+1, ttlv, data)
	})
}

// keysHomedAt returns n distinct keys (from 1 up) whose home cell is home
// in an index of 1<<bits cells.
func keysHomedAt(home uint64, bits uint, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if mixKey(k)>>(64-bits) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestBackwardShiftAcrossWrap builds a probe cluster that runs off the end
// of the 8-cell index into cell 0 and takes each member out in turn, by
// expiry and by eviction: the backward shift has to carry the survivors
// back across the wrap-around, leave the one that is already home alone,
// and keep every key reachable.
func TestBackwardShiftAcrossWrap(t *testing.T) {
	last := keysHomedAt(7, 3, 3) // land in cells 7, 0, 1
	zero := keysHomedAt(0, 3, 1) // home 0, displaced to cell 2
	keys := append(last, zero...)
	outsider := keysHomedAt(4, 3, 1)[0] // homed clear of the cluster
	for _, evict := range []bool{false, true} {
		for victim := range keys {
			p := newPair(t, 4, refTTL)
			for i, k := range keys {
				p.put(k, i)
			}
			if len(p.tb.index) != 8 {
				t.Fatalf("index grew to %d; the row needs the 8-cell index", len(p.tb.index))
			}
			for c, want := range []uint64{7: keys[0], 0: keys[1], 1: keys[2], 2: keys[3]} {
				if i := uint32(p.tb.index[c]); (want == 0) != (i == 0) || (i != 0 && p.tb.slots[i].key != want) {
					t.Fatalf("cell %d holds slot %d, want key %#x", c, i, want)
				}
			}
			if evict {
				// Every key but the victim touched, so the victim is the LRU
				// victim of the next insert.
				for i, k := range keys {
					if i != victim {
						p.get(k)
					}
				}
				p.put(outsider, 42)
				if p.tb.Evictions != 1 {
					t.Fatalf("insert at the bound evicted %d entries", p.tb.Evictions)
				}
			} else {
				p.expire(keys[victim])
			}
			p.ranged()
			for _, k := range keys {
				p.peek(k)
			}
			// The freed slot and cell are reused by the next insert.
			p.put(keys[victim], 99)
			p.ranged()
		}
	}
}

// TestClusterSpansGrowth fills one cell's cluster, then inserts through an
// index doubling: the cluster's members re-home under the new shift (they
// split between two cells), and expiries on either side of the growth keep
// both clusters intact.
func TestClusterSpansGrowth(t *testing.T) {
	cluster := keysHomedAt(5, 3, 4)
	p := newPair(t, 64, refTTL)
	for i, k := range cluster {
		p.put(k, i)
	}
	p.ranged()
	p.expire(cluster[1]) // hole in the middle of the old cluster
	p.put(cluster[1], 7)
	for k := uint64(1000); len(p.tb.index) < 32; k++ { // two doublings
		p.put(k, int(k))
	}
	p.ranged()
	for _, k := range cluster {
		p.peek(k)
	}
	p.expire(cluster[0], cluster[2])
	p.ranged()
	p.get(cluster[1])
	p.get(cluster[3])
	p.get(cluster[0]) // expired: a miss that must terminate
}

// tagTwins returns two keys whose mixed forms share their top 32 bits — the
// index's hash tag, and with it the home cell at every index size — found
// by a birthday search.
func tagTwins(t *testing.T) (uint64, uint64) {
	seen := make(map[uint32]uint64)
	for k := uint64(1); k <= 1<<20; k++ {
		tag := uint32(mixKey(k) >> 32)
		if prev, ok := seen[tag]; ok {
			return prev, k
		}
		seen[tag] = k
	}
	t.Fatal("no two keys up to 2^20 share a hash tag")
	return 0, 0
}

// TestSharedTag: two live keys with the same hash tag sit in one cluster, so
// a tag match alone must not end a probe. Get, put, eviction and expiry on
// either key agree with the model, whichever of the two goes first.
func TestSharedTag(t *testing.T) {
	a, b := tagTwins(t)
	outsider := keysHomedAt(mixKey(a)>>61^4, 3, 1)[0]
	for _, evict := range []bool{false, true} {
		for _, keys := range [][2]uint64{{a, b}, {b, a}} {
			p := newPair(t, 2, refTTL)
			p.put(keys[0], 1)
			p.put(keys[1], 2)
			p.get(keys[0])
			p.get(keys[1])
			p.put(keys[0], 3)
			p.ranged()
			if evict {
				p.put(outsider, 4) // keys[1] is the LRU victim
			} else {
				p.expire(keys[1])
			}
			p.ranged()
			p.peek(keys[1])
			p.get(keys[0])
			p.put(keys[1], 5)
			p.expire(keys[0])
			p.get(keys[1])
			p.getOrCreate(keys[0], 6)
			p.ranged()
		}
	}
}
