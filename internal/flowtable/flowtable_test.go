package flowtable

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGetBasics(t *testing.T) {
	tb := New[string](4)
	tb.Put(1, "a")
	tb.Put(2, "b")
	if v, ok := tb.Get(1); !ok || v != "a" {
		t.Errorf("Get(1) = %q,%v", v, ok)
	}
	if _, ok := tb.Get(9); ok {
		t.Error("Get(9) hit")
	}
	tb.Put(1, "a2")
	if v, _ := tb.Get(1); v != "a2" {
		t.Errorf("replace failed: %q", v)
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tb := New[int](3)
	var evicted []uint64
	tb.OnEvict = func(k uint64, _ int) { evicted = append(evicted, k) }
	tb.Put(1, 10)
	tb.Put(2, 20)
	tb.Put(3, 30)
	tb.Get(1)     // 1 becomes MRU; LRU order now 2,3,1
	tb.Put(4, 40) // evicts 2
	tb.Put(5, 50) // evicts 3
	if len(evicted) != 2 || evicted[0] != 2 || evicted[1] != 3 {
		t.Fatalf("evicted = %v, want [2 3]", evicted)
	}
	if _, ok := tb.Get(1); !ok {
		t.Error("recently-used entry evicted")
	}
	if tb.Evictions != 2 {
		t.Errorf("Evictions = %d", tb.Evictions)
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	tb := New[int](2)
	tb.Put(1, 10)
	tb.Put(2, 20)
	tb.Peek(1)    // must NOT refresh 1
	tb.Put(3, 30) // evicts 1 (still LRU)
	if _, ok := tb.Peek(1); ok {
		t.Error("Peek refreshed recency")
	}
}

// TestDeleteAndReset: an entry leaves the table on the table's own
// initiative — here a stale lookup, through OnEvict — and Reset drops every
// entry without telling OnEvict.
func TestDeleteAndReset(t *testing.T) {
	var clk manualClock
	tb := New[int](4)
	tb.SetTTL(10, clk.now)
	var gone []uint64
	tb.OnEvict = func(k uint64, _ int) { gone = append(gone, k) }
	tb.Put(1, 10)
	tb.Put(2, 20)
	clk.advance(11)
	if _, ok := tb.Get(1); ok {
		t.Fatal("stale entry served")
	}
	if tb.Len() != 1 || len(gone) != 1 || gone[0] != 1 {
		t.Errorf("Len = %d, evicted %v; want 1 and [1]", tb.Len(), gone)
	}
	tb.Reset()
	if tb.Len() != 0 || len(gone) != 1 {
		t.Errorf("Len after reset = %d, evicted %v", tb.Len(), gone)
	}
	// Table still usable after reset.
	tb.Put(5, 50)
	if v, ok := tb.Get(5); !ok || v != 50 {
		t.Error("table broken after Reset")
	}
}

func TestGetOrCreate(t *testing.T) {
	tb := New[int](2)
	v, created := tb.GetOrCreate(7, func() int { return 70 })
	if !created || v != 70 {
		t.Errorf("create = %v,%v", v, created)
	}
	v, created = tb.GetOrCreate(7, func() int { return 99 })
	if created || v != 70 {
		t.Errorf("reuse = %v,%v", v, created)
	}
}

func TestRangeMRUOrder(t *testing.T) {
	tb := New[int](4)
	tb.Put(1, 1)
	tb.Put(2, 2)
	tb.Put(3, 3)
	tb.Get(1)
	tb.Peek(2) // no refresh
	keys := mru(tb)
	want := []uint64{1, 3, 2}
	if len(keys) != len(want) {
		t.Fatalf("recency order = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("recency order = %v, want %v", keys, want)
		}
	}
}

func TestCapacityFloor(t *testing.T) {
	tb := New[int](0)
	if tb.Capacity() != 1 {
		t.Errorf("Capacity = %d", tb.Capacity())
	}
	tb.Put(1, 1)
	tb.Put(2, 2)
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

// Property: the table never exceeds capacity, and a Get immediately after
// a Put always hits.
func TestBoundedProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8, opsRaw []byte) bool {
		capacity := int(capRaw%16) + 1
		tb := New[int](capacity)
		rng := rand.New(rand.NewSource(seed))
		for range opsRaw {
			k := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				tb.Put(k, int(k))
				if v, ok := tb.Get(k); !ok || v != int(k) {
					return false
				}
			case 1:
				tb.Get(k)
			default:
				tb.Peek(k)
			}
			if tb.Len() > capacity {
				return false
			}
		}
		// Linked list and index must agree.
		return len(mru(tb)) == tb.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkTableChurn is a telco_churn-shaped key stream: a new flow every
// fourth key, each flow seen four times over about 3 000 keys. "conntrack"
// is one ingress queue's table (64 Ki flows, a 250 ms TTL on a clock that
// moves 333 ns a key, about 3 M keys/s); "nat" is the NAT's 45 000-entry
// table without a TTL. Both run GetOrCreate, as their owners do; ns/op is
// per key.
func BenchmarkTableChurn(b *testing.B) {
	const spread = 256 // flows between two touches of one flow
	stream := make([]uint64, 1<<16)
	for j := range stream {
		f := j/4 - j%4*spread
		stream[j] = uint64(f+4*spread) * 0x9e3779b97f4a7c15
	}
	for _, c := range []struct {
		name     string
		capacity int
		ttl      int64
	}{{"conntrack", 1 << 16, 250e6}, {"nat", 45000, 0}} {
		b.Run(c.name, func(b *testing.B) {
			var clock int64
			tb := New[uint16](c.capacity)
			if c.ttl > 0 {
				tb.SetTTL(c.ttl, func() int64 { return clock })
			}
			mk := func() uint16 { return 1 }
			var pass uint64
			for i := 0; i < b.N; i++ {
				j := i & (len(stream) - 1)
				if j == 0 {
					pass++ // a new template pass rekeys every flow
				}
				clock += 333
				tb.GetOrCreate(stream[j]^pass<<48, mk)
			}
		})
	}
}
