package flowtable

import (
	"math"
	"sync"
	"sync/atomic"
)

// Sharded is a concurrent flow-keyed store striped across many bounded LRU
// Tables, each behind its own mutex. Keys are spread across stripes by a
// 64-bit mixer, so a table sized for millions of flows sees its lock
// contention and its eviction/expiry work divided by the stripe count. (The
// ingress plane does not use it: each NIC queue there has one writer and
// owns a Table.)
//
// Expiry remains incremental per stripe (see Table.SetTTL): an operation
// touches at most a couple of stale tail entries of its own stripe, so
// there is never a stop-the-world sweep no matter how many flows die at
// once.
//
// What a caller asks once per batch costs no lock: Len reads a census the
// stripes keep as they change, and ExpireTail passes over every stripe
// whose oldest entry is known not to be due yet.
type Sharded[V any] struct {
	stripes []shardedStripe[V]
	mask    uint64
	// census is the resident count over all stripes, adjusted under the
	// stripe lock by whichever operation changed it.
	census atomic.Int64
	// now is the TTL clock (nil without one); each operation reads it once.
	now func() int64
}

// shardedStripe is two cache lines (TestStripeSize), so neighbouring locks
// do not false-share under per-shard update traffic.
type shardedStripe[V any] struct {
	mu sync.Mutex
	// due is a clock value up to which the stripe is known to hold nothing
	// stale: its LRU tail's stamp plus the TTL as last published, MaxInt64
	// while it is empty or has no TTL. It may lag behind the truth — a
	// touched tail moves the real figure later — but never runs ahead of
	// it, so the expiry sweep skips on it without taking the lock, and
	// republishes it whenever it does look.
	due atomic.Int64
	t   Table[V]
}

// NewSharded builds a sharded table bounded to capacity entries in total,
// split across stripes (rounded up to a power of two, minimum 1; <= 0
// selects 64). Each stripe enforces its share of the bound, so a pathological
// key skew can evict within one stripe while others have room — the price
// of never taking a global lock.
func NewSharded[V any](stripes, capacity int) *Sharded[V] {
	if stripes <= 0 {
		stripes = 64
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	s := &Sharded[V]{stripes: make([]shardedStripe[V], n), mask: uint64(n - 1)}
	for i := range s.stripes {
		s.stripes[i].t = *New[V](per)
		s.stripes[i].due.Store(math.MaxInt64)
	}
	return s
}

// SetTTL enables lazy expiry on every stripe (see Table.SetTTL). now must
// be safe for concurrent use (e.g. an atomic counter or a monotonic clock
// read). It is configuration: call it before the table is shared.
func (s *Sharded[V]) SetTTL(ttl int64, now func() int64) {
	s.now = nil
	if ttl > 0 {
		s.now = now
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.t.SetTTL(ttl, now)
		st.publishDue()
		st.mu.Unlock()
	}
}

// publishDue sets due from the stripe's LRU tail. Called with mu held.
func (st *shardedStripe[V]) publishDue() {
	due := int64(math.MaxInt64)
	if tail := st.t.slots[0].prev; tail != 0 && st.t.ttl > 0 {
		due = st.t.slots[tail].stamp + st.t.ttl
	}
	st.due.Store(due)
}

// lock takes the stripe key belongs to and reads the TTL clock under it,
// so stamps within a stripe never run backwards.
func (s *Sharded[V]) lock(key uint64) (st *shardedStripe[V], now int64) {
	st = &s.stripes[mixKey(key)&s.mask]
	st.mu.Lock()
	if s.now != nil {
		now = s.now()
	}
	return st, now
}

// unlock publishes what the operation did to a stripe that held before
// entries when it began — the census delta, and a due time if it was empty
// and no longer is (the one way due can move earlier) — and releases it.
func (s *Sharded[V]) unlock(st *shardedStripe[V], before int) {
	if d := st.t.live - before; d != 0 {
		s.census.Add(int64(d))
		if before == 0 {
			st.publishDue()
		}
	}
	st.mu.Unlock()
}

// GetOrCreate returns the existing value or installs the one produced by
// mk (called with the stripe lock held), reporting whether it was created.
func (s *Sharded[V]) GetOrCreate(key uint64, mk func() V) (V, bool) {
	st, now := s.lock(key)
	before := st.t.live
	v, created := st.t.getOrCreate(key, mk, now)
	s.unlock(st, before)
	return v, created
}

// Touch is GetOrCreate for presence-only values: it refreshes key's recency
// (and TTL stamp), inserting it if absent, and reports whether the flow is
// new.
// This is the connection-tracker fast path — one lock, one index probe.
func (s *Sharded[V]) Touch(key uint64, mk func() V) bool {
	_, created := s.GetOrCreate(key, mk)
	return created
}

// Len returns the resident entries across stripes, from the census: no
// lock, O(1). With a TTL set this may include stale entries not yet
// reclaimed; pair with ExpireTail for a tighter figure.
func (s *Sharded[V]) Len() int { return int(s.census.Load()) }

// Evictions sums LRU evictions across stripes.
func (s *Sharded[V]) Evictions() uint64 {
	var n uint64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.t.Evictions
		st.mu.Unlock()
	}
	return n
}

// Expired sums TTL expiries across stripes.
func (s *Sharded[V]) Expired() uint64 {
	var n uint64
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += st.t.Expired
		st.mu.Unlock()
	}
	return n
}

// ExpireTail reclaims up to max stale entries from every stripe's LRU tail
// (so up to max times the stripe count in total), returning how many were
// removed. Cheap enough to call per batch: a stripe with nothing due costs
// one atomic load and no lock.
func (s *Sharded[V]) ExpireTail(max int) int {
	return s.ExpireTailRange(0, len(s.stripes), max)
}

// ExpireTailRange is ExpireTail restricted to stripes [lo, hi): worker w of
// n parallel ingress pumps sweeps stripes [w*S/n, (w+1)*S/n), so the whole
// table is still covered every round but no two workers ever contend on the
// same stripe's lock for expiry work. Bounds are clamped to the stripe
// count; an empty range reclaims nothing.
func (s *Sharded[V]) ExpireTailRange(lo, hi, max int) int {
	if s.now == nil {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.stripes) {
		hi = len(s.stripes)
	}
	now := s.now()
	n := 0
	for i := lo; i < hi; i++ {
		st := &s.stripes[i]
		if now <= st.due.Load() {
			continue
		}
		st.mu.Lock()
		before := st.t.live
		n += st.t.expireTail(max, now)
		st.publishDue()
		s.unlock(st, before)
	}
	return n
}
