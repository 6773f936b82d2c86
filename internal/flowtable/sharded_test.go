package flowtable

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// manualClock is a test clock for TTL expiry, safe for concurrent use.
type manualClock struct{ t atomic.Int64 }

func (c *manualClock) now() int64      { return c.t.Load() }
func (c *manualClock) advance(d int64) { c.t.Add(d) }

func TestTTLLazyExpiry(t *testing.T) {
	var clk manualClock
	tab := New[int](100)
	tab.SetTTL(10, clk.now)

	tab.Put(1, 11)
	clk.advance(5)
	tab.Put(2, 22)
	clk.advance(6) // key 1 is now 11 old (stale), key 2 is 6 old (live)

	if _, ok := tab.Get(1); ok {
		t.Fatal("stale entry served")
	}
	if v, ok := tab.Get(2); !ok || v != 22 {
		t.Fatalf("live entry lost: %v %v", v, ok)
	}
	if tab.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", tab.Expired)
	}

	// Get refreshes the stamp: key 2 survives another near-TTL advance.
	clk.advance(9)
	if _, ok := tab.Get(2); !ok {
		t.Fatal("touched entry expired early")
	}
}

func TestTTLPutReclaimsBeforeEvicting(t *testing.T) {
	var clk manualClock
	tab := New[int](4)
	tab.SetTTL(10, clk.now)
	for k := uint64(0); k < 4; k++ {
		tab.Put(k, int(k))
	}
	clk.advance(100) // everything stale
	tab.Put(9, 9)
	if tab.Evictions != 0 {
		t.Fatalf("LRU-evicted a flow while stale entries were reclaimable (evictions=%d)", tab.Evictions)
	}
	if tab.Expired == 0 {
		t.Fatal("Put reclaimed nothing")
	}
}

func TestTTLExpireTailBudget(t *testing.T) {
	var clk manualClock
	tab := New[int](100)
	tab.SetTTL(10, clk.now)
	for k := uint64(0); k < 50; k++ {
		tab.Put(k, 0)
	}
	clk.advance(100)
	if n := tab.expireTail(7, clk.now()); n != 7 {
		t.Fatalf("expireTail removed %d, want exactly the budget 7", n)
	}
	if tab.Len() != 43 {
		t.Fatalf("Len = %d after budgeted expiry", tab.Len())
	}
}

func TestShardedBasics(t *testing.T) {
	var clk manualClock
	s := NewSharded[int](8, 1024)
	s.SetTTL(10, clk.now)
	if len(s.stripes) != 8 {
		t.Fatalf("stripes = %d", len(s.stripes))
	}
	for k := uint64(0); k < 500; k++ {
		if v, created := s.GetOrCreate(k, func() int { return int(k) * 2 }); !created || v != int(k)*2 {
			t.Fatalf("insert %d: %v %v", k, v, created)
		}
	}
	clk.advance(5)
	for k := uint64(0); k < 500; k++ {
		if k == 7 {
			continue
		}
		if v, created := s.GetOrCreate(k, func() int { return -1 }); created || v != int(k)*2 {
			t.Fatalf("key %d: %v %v", k, v, created)
		}
	}
	clk.advance(6) // key 7 alone is past the TTL
	if n := s.ExpireTailRange(0, len(s.stripes), 8); n != 1 {
		t.Fatalf("sweep reclaimed %d, want key 7 only", n)
	}
	if got := s.Len(); got != 499 {
		t.Fatalf("Len = %d", got)
	}
	if _, created := s.GetOrCreate(7, func() int { return 0 }); !created {
		t.Fatal("expired key resurfaced")
	}
}

// TestShardedMillionFlowChurn is the million-flow soak invariant: the
// sharded table absorbs over a million concurrent flows plus ongoing churn
// from many goroutines, stays within its capacity bound (bounded memory),
// reclaims dead flows via lazy expiry only, and never loses an established
// (recently refreshed) flow.
func TestShardedMillionFlowChurn(t *testing.T) {
	const (
		capacity    = 1 << 21 // 2M bound, so 1.2M concurrent flows fit
		established = 4096    // flows we keep alive throughout
		churn       = 1_200_000
		ttl         = int64(1_000_000)
	)
	if testing.Short() {
		t.Skip("million-flow churn is a long test")
	}
	var clk manualClock
	s := NewSharded[uint64](128, capacity)
	s.SetTTL(ttl, clk.now)

	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	per := churn / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * uint64(per)
			for i := 0; i < per; i++ {
				key := 1 + base + uint64(i) // transient flow, inserted once
				s.GetOrCreate(key, func() uint64 { return key })
				// Refresh one established flow every few inserts so the
				// whole established set stays live from every worker.
				if i%4 == 0 {
					ek := uint64(1<<40) + uint64((int(base)+i)%established)
					s.GetOrCreate(ek, func() uint64 { return ek })
				}
			}
		}(w)
	}
	wg.Wait()

	peak := s.Len()
	if peak < 1_000_000 {
		t.Fatalf("concurrent flows = %d, want >= 1M", peak)
	}
	if peak > capacity {
		t.Fatalf("table exceeded its bound: %d > %d", peak, capacity)
	}

	// The churn flows age out; the established set is refreshed and must
	// survive incremental reclamation sweeps.
	clk.advance(ttl / 2)
	for k := 0; k < established; k++ {
		s.GetOrCreate(uint64(1<<40)+uint64(k), func() uint64 { return 1 })
	}
	clk.advance(ttl/2 + 1) // transients now stale, established refreshed
	for reclaimed := 1; reclaimed > 0; {
		reclaimed = s.ExpireTail(256)
	}
	if got := s.Len(); got > established+len(s.stripes) {
		t.Fatalf("lazy expiry left %d entries (want ~%d)", got, established)
	}
	for k := 0; k < established; k++ {
		if _, created := s.GetOrCreate(uint64(1<<40)+uint64(k), func() uint64 { return 0 }); created {
			t.Fatalf("established flow %d lost during churn/expiry", k)
		}
	}
	if s.Expired() == 0 {
		t.Fatal("no TTL expiries recorded")
	}
}

// TestShardedConcurrentTouch exercises the conntrack fast path under the
// race detector.
func TestShardedConcurrentTouch(t *testing.T) {
	s := NewSharded[struct{}](16, 1<<14)
	var news atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if s.Touch(uint64(i%1000), func() struct{} { return struct{}{} }) {
					news.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != 1000 {
		t.Fatalf("Len = %d, want 1000", got)
	}
	if n := news.Load(); n != 1000 {
		t.Fatalf("new-flow count = %d, want 1000", n)
	}
}

// TestShardedExpireVsTouch races the lock-free expiry skip against the
// conntrack fast path: sweepers read only each stripe's published due time
// while touchers insert, refresh and age flows underneath them. Afterwards
// the census, the stripes and the counters must agree exactly.
func TestShardedExpireVsTouch(t *testing.T) {
	const ttl = 50
	var clk manualClock
	s := NewSharded[struct{}](8, 1<<12)
	s.SetTTL(ttl, clk.now)
	mk := func() struct{} { return struct{}{} }

	var news, swept atomic.Int64
	var touchers, sweepers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		sweepers.Add(1)
		go func(w int) {
			defer sweepers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					swept.Add(int64(s.ExpireTailRange(w*4, w*4+4, 8)))
					s.Len()
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		touchers.Add(1)
		go func(w int) {
			defer touchers.Done()
			for i := 0; i < 20000; i++ {
				// First half: transients among shared flows all three keep
				// warm. Second half: hits only, so no insert's expiry budget
				// runs and what went stale is the sweepers' to reclaim.
				key := uint64(i % 64)
				if i < 10000 && i%3 != 0 {
					key = uint64(w+1)<<32 | uint64(i)
				}
				if s.Touch(key, mk) {
					news.Add(1)
				}
				if i%16 == 0 {
					clk.advance(1)
				}
			}
		}(w)
	}
	touchers.Wait()
	close(stop)
	sweepers.Wait()

	resident := 0
	for i := range s.stripes {
		checkStructure(t, &s.stripes[i].t)
		resident += len(mru(&s.stripes[i].t))
	}
	if got := s.Len(); got != resident {
		t.Fatalf("census %d, stripes hold %d", got, resident)
	}
	if gone := s.Expired() + s.Evictions(); uint64(news.Load()) != uint64(resident)+gone {
		t.Fatalf("ledger: %d created != %d resident + %d expired/evicted", news.Load(), resident, gone)
	}
	if uint64(swept.Load()) > s.Expired() {
		t.Fatalf("sweepers reclaimed %d of %d expiries", swept.Load(), s.Expired())
	}
	// Everything left goes stale; the sweep must find all of it even though
	// most stripes were last published with a live tail.
	clk.advance(ttl + 1)
	for s.ExpireTail(64) > 0 {
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("%d entries survived a full sweep past the TTL", got)
	}
}

// TestShardedSkipRule pins the published due time: it may lag the truth
// (a refreshed tail is found live and republished) but an emptied stripe
// that fills again must become due again — the one case where the due time
// moves earlier.
func TestShardedSkipRule(t *testing.T) {
	const ttl = 10
	var clk manualClock
	s := NewSharded[int](1, 16)
	if n := s.ExpireTail(4); n != 0 {
		t.Fatalf("ExpireTail without a TTL removed %d", n)
	}
	s.SetTTL(ttl, clk.now)
	st := &s.stripes[0]

	mk := func() int { return 0 }
	s.GetOrCreate(1, mk)
	s.GetOrCreate(2, mk)
	if due := st.due.Load(); due != ttl {
		t.Fatalf("due = %d after first insert at clock 0, want %d", due, ttl)
	}
	clk.advance(8)
	s.GetOrCreate(1, mk) // key 1 refreshed; key 2 is the tail, still stamped 0
	clk.advance(3)
	if n := s.ExpireTail(4); n != 1 {
		t.Fatalf("ExpireTail removed %d at clock 11, want key 2 only", n)
	}
	if due := st.due.Load(); due != 8+ttl {
		t.Fatalf("due = %d after the sweep, want the new tail's %d", due, 8+ttl)
	}
	clk.advance(8) // 19: past due, key 1 goes
	if n := s.ExpireTail(4); n != 1 || s.Len() != 0 {
		t.Fatalf("ExpireTail removed %d, Len %d; want the stripe empty", n, s.Len())
	}
	s.GetOrCreate(3, mk) // refills the emptied stripe at clock 19
	clk.advance(ttl + 1)
	if n := s.ExpireTail(4); n != 1 {
		t.Fatalf("refilled stripe was skipped: removed %d", n)
	}
}

// TestStripeSize keeps the stripes on cache-line boundaries of their own.
func TestStripeSize(t *testing.T) {
	if sz := reflect.TypeOf((*shardedStripe[struct{}])(nil)).Elem().Size(); sz%64 != 0 {
		t.Fatalf("shardedStripe is %d bytes, not a multiple of a 64-byte line", sz)
	}
}

// TestFlowtableAllocs guards the representation's promise: once the arrays
// have grown to the population, nothing on the flow path allocates.
func TestFlowtableAllocs(t *testing.T) {
	mk := func() struct{} { return struct{}{} }
	var clock int64
	conntrack := func(capacity int, ttl int64) *Sharded[struct{}] {
		s := NewSharded[struct{}](64, capacity)
		s.SetTTL(ttl, func() int64 { return clock })
		return s
	}
	next := uint64(1 << 32)

	hit := conntrack(1<<21, 60e9)
	for k := uint64(0); k < 4096; k++ {
		hit.Touch(k, mk)
	}
	evict := conntrack(1<<12, 60e9) // at its bound: every insert evicts
	expire := conntrack(1<<21, 1000)
	for k := uint64(0); k < 1<<13; k++ {
		evict.Touch(k, mk)
		expire.Touch(k, mk)
	}
	nat := New[uint16](45000)
	fill := func() {
		for k := uint64(0); k < 45000; k++ {
			nat.Put(k, uint16(k))
		}
	}
	fill()

	for _, row := range []struct {
		name string
		op   func()
	}{
		{"touch hit", func() {
			for k := uint64(0); k < 4096; k++ {
				hit.Touch(k, mk)
			}
		}},
		{"insert at the bound (evict + insert)", func() {
			for i := 0; i < 1024; i++ {
				next++
				evict.Touch(next, mk)
			}
		}},
		{"insert at the plateau (expire + insert)", func() {
			for i := 0; i < 1024; i++ {
				next++
				clock += 8
				expire.Touch(next, mk)
			}
			expire.ExpireTail(16)
		}},
		{"Reset + refill", func() { nat.Reset(); fill() }},
	} {
		if a := testing.AllocsPerRun(5, row.op); a != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", row.name, a)
		}
	}
	if evict.Evictions() == 0 || expire.Expired() == 0 {
		t.Fatalf("rows did not exercise their path: evictions=%d expired=%d", evict.Evictions(), expire.Expired())
	}
}

// TestShardedFootprint: an idle conntrack table costs what its flows cost,
// not what its bound would (the pump's default bound is 2^21 flows).
func TestShardedFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSharded[struct{}](64, 1<<21)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewSharded(64, 2^21) allocated %d bytes, want < 1 MB", got)
	}
	runtime.KeepAlive(s)
}

var scrubSink byte

// BenchmarkTouchColdTable is the conntrack hit as the live pump pays it:
// 4096 resident flows under the pump's default 2^21 bound, with the cache
// scrubbed between passes the way a batch of packet buffers scrubs it. A
// loop over a cache-resident table (the benchmark's flowtable.touch_hit_ns)
// cannot see what the representation costs in cold lines; this can.
func BenchmarkTouchColdTable(b *testing.B) {
	const flows = 4096
	var clock int64
	s := NewSharded[struct{}](64, 1<<21)
	s.SetTTL(60e9, func() int64 { return clock })
	mk := func() struct{} { return struct{}{} }
	keys := make([]uint64, flows)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
		s.Touch(keys[i], mk)
	}
	scrub := make([]byte, 8<<20)
	b.ResetTimer()
	for done := 0; done < b.N; done += flows {
		b.StopTimer()
		for i := 0; i < len(scrub); i += 64 {
			scrub[i]++
		}
		scrubSink += scrub[len(scrub)-64]
		b.StartTimer()
		for _, k := range keys[:min(flows, b.N-done)] {
			clock += 1000
			s.Touch(k, mk)
		}
	}
}
