// Package flowtable provides the bounded per-flow state stores the
// stateful network functions and the ingress plane share (NAT port
// mappings, TCP reassembly contexts, stream-scanner automaton states,
// connection tracking). Real NFV deployments bound flow state and evict —
// an unbounded map is a memory leak under flow churn — so every table
// keeps at most Capacity entries with least-recently-used eviction and an
// eviction callback for owners that must release resources.
//
// Two table shapes:
//
//   - Table is single-goroutine (each stateful element owns one and runs
//     on one goroutine, and each ingress NIC queue owns one for its
//     connection tracking) with optional lazy TTL expiry that stays
//     incremental (a few tail entries per operation or per ExpireTail
//     call), never a stop-the-world sweep.
//   - Sharded stripes many Tables behind per-stripe locks, for millions of
//     concurrent flows touched from many goroutines at once.
//
// Representation. A Table is two flat arrays: a slab of slots {key, stamp,
// prev, next, value} and an open-addressed index of slot numbers, each
// under its key's hash tag (linear probing, backward-shift delete, so there
// are no tombstones and a probe never outlives the cluster it started in).
// A probe loads a slot only when the tag matches, and the backward shift
// reads homes off the tags, so a lookup touches the index and, almost
// always, the one slot it is after. The LRU list is threaded
// through the slab by slot number, freed slots recycle through a free
// list, and both arrays grow on demand up to the bound — so the memory and
// the cache lines a table touches follow the flows that are live, not the
// capacity it was given. Nothing is allocated per insert, evict, expire or
// Reset once the arrays have reached the population's size, and a table of
// pointer-free values holds no pointer for the collector to follow.
// Everything observable is exact: the LRU victim, the TTL rules and the
// OnEvict sequence are those of a linked list over a map.
//
// The index is addressed by the top bits of the mixed key and Sharded
// picks the stripe by the bottom bits, so the keys that share a stripe
// still spread over that stripe's index.
package flowtable

import "math"

// Table is a bounded flow-keyed store with LRU eviction. The zero value is
// not usable; construct with New. It is not goroutine-safe: its owner — a
// stateful element, an ingress NIC queue — runs on a single goroutine.
type Table[V any] struct {
	// slots is the slab. slots[0] is the LRU list's sentinel — its next is
	// the most recently used slot, its prev the next victim — so slot
	// number 0 doubles as "none" in every link and in the index.
	slots []slot[V]
	// index maps a key's home position (mixKey(key) >> shift) to a cell
	// holding mixKey(key)>>32 in its top half and the slot number in its
	// bottom half, 0 for empty. Its length is a power of two kept at least
	// twice the live count, so every probe ends at an empty cell. The
	// capacity cap keeps it at most 2^32 cells, so shift >= 32 and a cell's
	// home is cell >> shift.
	index []uint64
	shift uint32
	free  uint32 // head of the free-slot list, linked through next
	live  int

	capacity int
	// ttl and now implement lazy expiry; zero ttl disables it.
	ttl int64
	now func() int64

	// OnEvict, when set, observes each evicted key/value (LRU evictions and
	// TTL expiries alike).
	OnEvict func(key uint64, value V)

	// Evictions counts LRU evictions (the churn metric).
	Evictions uint64
	// Expired counts TTL expiries (see SetTTL).
	Expired uint64
}

type slot[V any] struct {
	key uint64
	// stamp is the clock value of the last touch; meaningful only when the
	// table has a TTL.
	stamp      int64
	prev, next uint32
	value      V
}

// minIndexBits sizes the index a table starts with: 8 cells.
const minIndexBits = 3

// New creates a table bounded to capacity entries (minimum 1; slot numbers
// are 32-bit, which caps it at 2^31-1).
func New[V any](capacity int) *Table[V] {
	if capacity < 1 {
		capacity = 1
	}
	if capacity > math.MaxInt32 {
		capacity = math.MaxInt32
	}
	return &Table[V]{
		capacity: capacity,
		slots:    make([]slot[V], 1),
		index:    make([]uint64, 1<<minIndexBits),
		shift:    64 - minIndexBits,
	}
}

// mixKey is the splitmix64 finalizer — near-sequential flow keys must land
// on distinct stripes and distinct index cells.
func mixKey(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of resident entries. With a TTL set this may
// include entries that are already stale but not yet lazily reclaimed.
func (t *Table[V]) Len() int { return t.live }

// Capacity returns the bound.
func (t *Table[V]) Capacity() int { return t.capacity }

// SetTTL enables lazy expiry: entries untouched (no Get/Put) for longer
// than ttl clock units are treated as gone and reclaimed incrementally —
// a lookup that hits a stale entry removes it and reports a miss, and each
// Put additionally retires a couple of stale entries from the LRU tail.
// now supplies the clock (monotonic nanoseconds, a packet counter, any
// non-decreasing scale ttl is expressed in). ttl <= 0 disables expiry.
func (t *Table[V]) SetTTL(ttl int64, now func() int64) {
	t.ttl, t.now = ttl, now
	if ttl > 0 {
		stamp := now()
		for i := t.slots[0].next; i != 0; i = t.slots[i].next {
			t.slots[i].stamp = stamp
		}
	}
}

// clock reads the TTL clock — once per operation, so every decision inside
// it sees one time. Without a TTL nothing reads the result.
func (t *Table[V]) clock() int64 {
	if t.ttl > 0 {
		return t.now()
	}
	return 0
}

// stale reports whether slot i's TTL has lapsed at clock value now.
func (t *Table[V]) stale(i uint32, now int64) bool {
	return t.ttl > 0 && now-t.slots[i].stamp > t.ttl
}

// find probes for key, whose mixed form is h, and returns its slot number
// or 0.
func (t *Table[V]) find(h, key uint64) uint32 {
	mask := uint64(len(t.index) - 1)
	for p := h >> t.shift; ; p = (p + 1) & mask {
		e := t.index[p]
		if e == 0 || e>>32 == h>>32 && t.slots[uint32(e)].key == key {
			return uint32(e)
		}
	}
}

// expireTail reclaims up to max entries stale at now from the LRU tail,
// returning how many were removed. The tail holds the least recently
// touched entries, so the scan stops at the first live one — each call is
// O(removed+1), never a full-table sweep.
func (t *Table[V]) expireTail(max int, now int64) int {
	n := 0
	for ; n < max; n++ {
		tail := t.slots[0].prev
		if tail == 0 || !t.stale(tail, now) {
			break
		}
		t.drop(tail, &t.Expired)
	}
	return n
}

// ExpireTail reclaims up to max stale entries from the LRU tail (see
// SetTTL), returning how many were removed: a per-batch sweep that costs
// O(removed+1) and nothing without a TTL.
func (t *Table[V]) ExpireTail(max int) int {
	if t.ttl <= 0 {
		return 0
	}
	return t.expireTail(max, t.now())
}

// Get returns the value for key, marking it most recently used. A stale
// entry (see SetTTL) is reclaimed and reported as a miss.
func (t *Table[V]) Get(key uint64) (V, bool) { return t.get(key, t.clock()) }

func (t *Table[V]) get(key uint64, now int64) (V, bool) {
	i := t.find(mixKey(key), key)
	if i != 0 && t.stale(i, now) {
		t.drop(i, &t.Expired)
		i = 0
	}
	if i == 0 {
		var zero V
		return zero, false
	}
	t.touch(i, now)
	return t.slots[i].value, true
}

// Peek returns the value without touching recency. Stale entries read as
// absent but are left for the lazy reclaim paths.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	i := t.find(mixKey(key), key)
	if i == 0 || t.stale(i, t.clock()) {
		var zero V
		return zero, false
	}
	return t.slots[i].value, true
}

// putExpiryBudget is how many stale tail entries each Put retires: enough
// that steady write traffic keeps pace with steady expiry, small enough
// that no single operation stalls.
const putExpiryBudget = 2

// Put inserts or replaces the value for key (most recently used), evicting
// the LRU entry if the table is full. With a TTL set, each Put also lazily
// retires up to putExpiryBudget stale entries from the tail, so room is
// reclaimed from dead flows before a live one is evicted.
func (t *Table[V]) Put(key uint64, value V) { t.put(key, value, t.clock()) }

func (t *Table[V]) put(key uint64, value V, now int64) {
	t.expireTail(putExpiryBudget, now)
	h := mixKey(key)
	if i := t.find(h, key); i != 0 {
		t.slots[i].value = value
		t.touch(i, now)
		return
	}
	if t.live >= t.capacity {
		if tail := t.slots[0].prev; tail != 0 {
			t.drop(tail, &t.Evictions)
		}
	}
	if 2*(t.live+1) > len(t.index) {
		t.growIndex()
	}
	i := t.free
	if i != 0 {
		t.free = t.slots[i].next
	} else {
		i = uint32(len(t.slots))
		t.slots = append(t.slots, slot[V]{})
	}
	t.slots[i] = slot[V]{key: key, stamp: now, value: value}
	t.pushFront(i)
	t.live++
	mask := uint64(len(t.index) - 1)
	p := h >> t.shift
	for t.index[p] != 0 {
		p = (p + 1) & mask
	}
	t.index[p] = h&^math.MaxUint32 | uint64(i)
}

// growIndex doubles the index and re-homes every live slot.
func (t *Table[V]) growIndex() {
	old := t.index
	t.index = make([]uint64, 2*len(old))
	t.shift--
	mask := uint64(len(t.index) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		p := e >> t.shift
		for t.index[p] != 0 {
			p = (p + 1) & mask
		}
		t.index[p] = e
	}
}

// GetOrCreate returns the existing value or installs the one produced by
// mk, reporting whether it was created.
func (t *Table[V]) GetOrCreate(key uint64, mk func() V) (V, bool) {
	return t.getOrCreate(key, mk, t.clock())
}

func (t *Table[V]) getOrCreate(key uint64, mk func() V, now int64) (V, bool) {
	if v, ok := t.get(key, now); ok {
		return v, false
	}
	v := mk()
	t.put(key, v, now)
	return v, true
}

// Reset drops every entry without invoking OnEvict. The arrays are kept,
// so a table that is reset and refilled allocates nothing.
func (t *Table[V]) Reset() {
	clear(t.index)
	clear(t.slots) // also empties the sentinel's links and drops value references
	t.slots = t.slots[:1]
	t.free, t.live = 0, 0
	t.Evictions = 0
	t.Expired = 0
}

// drop removes slot i on the table's own initiative, books it under
// counter (Evictions or Expired) and tells OnEvict — last, so the callback
// sees a consistent table.
func (t *Table[V]) drop(i uint32, counter *uint64) {
	key, value := t.remove(i)
	*counter++
	if t.OnEvict != nil {
		t.OnEvict(key, value)
	}
}

// remove takes slot i out of the index and the LRU list and frees it.
func (t *Table[V]) remove(i uint32) (uint64, V) {
	s := &t.slots[i]
	key, value := s.key, s.value
	mask := uint64(len(t.index) - 1)
	p := mixKey(key) >> t.shift
	for uint32(t.index[p]) != i {
		p = (p + 1) & mask
	}
	// Backward shift: pull every later member of the cluster whose home is
	// at or before the hole into it, so no probe ever crosses an empty cell
	// that used to be occupied.
	for q := (p + 1) & mask; t.index[q] != 0; q = (q + 1) & mask {
		e := t.index[q]
		if (q-e>>t.shift)&mask >= (q-p)&mask {
			t.index[p] = e
			p = q
		}
	}
	t.index[p] = 0
	t.slots[s.prev].next = s.next
	t.slots[s.next].prev = s.prev
	*s = slot[V]{next: t.free} // the zero value lets go of what it referenced
	t.free = i
	t.live--
	return key, value
}

func (t *Table[V]) touch(i uint32, now int64) {
	s := &t.slots[i]
	s.stamp = now
	if s.prev == 0 {
		return
	}
	t.slots[s.prev].next = s.next
	t.slots[s.next].prev = s.prev
	t.pushFront(i)
}

func (t *Table[V]) pushFront(i uint32) {
	head := t.slots[0].next
	t.slots[i].prev, t.slots[i].next = 0, head
	t.slots[head].prev = i
	t.slots[0].next = i
}
