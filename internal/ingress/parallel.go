package ingress

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// replayClock is the parallel pump's monotone replay clock. Readers feed
// packet arrival timestamps through Observe, which advances the clock with
// an atomic CAS-max so concurrent observers can never move it backwards;
// the conntrack TTL sweep reads it through Now.
type replayClock struct{ v atomic.Int64 }

// Observe advances the clock to ns if ns is ahead of it.
func (c *replayClock) Observe(ns int64) {
	for {
		cur := c.v.Load()
		if ns <= cur || c.v.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Now reports the latest observed timestamp.
func (c *replayClock) Now() int64 { return c.v.Load() }

// rxCounters is one RX worker's statistics slab. Counters are atomics padded
// out to a cache line so per-packet increments on one worker never
// false-share with a neighbour's; they are merged into PumpStats exactly
// once, after the workers drain.
type rxCounters struct {
	packets  atomic.Uint64
	bytes    atomic.Uint64
	batches  atomic.Uint64
	flows    atomic.Uint64
	released atomic.Uint64 // popped+counted packets the worker released (inject refused)
	peak     atomic.Int64
	_        [64]byte
}

// drainCounters is one egress drainer's slab, padded for the same reason.
type drainCounters struct {
	out   atomic.Uint64
	drops atomic.Uint64
	_     [64]byte
}

// ParallelDrain consumes every shard's output channel with one goroutine per
// shard — the egress half of the parallel plane. The pipeline must be built
// with dataplane ShardOut. Counts accumulate in cache-padded per-shard slabs
// and are reconciled once at completion. Sinks that declare ConcurrentSafe
// are invoked concurrently; any other sink is serialized behind a mutex
// (correct, but it re-introduces a fan-in point — implement ConcurrentSink
// to keep egress parallel). The returned wait function blocks until every
// shard's channel is closed and reports emitted packets, drops, and the
// first sink error.
func ParallelDrain(sp *dataplane.ShardedPipeline, sink Sink) func() (outPackets, drops uint64, err error) {
	return parallelDrain(sp, sink, nil)
}

// parallelDrain is ParallelDrain plus flight instrumentation: each shard's
// drain goroutine owns one drain-stage lane (drainTo) and sink errors are
// booked in the loss ledger.
func parallelDrain(sp *dataplane.ShardedPipeline, sink Sink, rec *flight.Recorder) func() (outPackets, drops uint64, err error) {
	shards := sp.NumShards()
	ctrs := make([]drainCounters, shards)
	consume := sinkConsumer(sink)
	ledger := rec.Ledger()
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		sinkErr error
	)
	for q := 0; q < shards; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			c := &ctrs[q]
			dl := rec.Lane(flight.StageDrain, q)
			for b := range sp.OutShard(q) {
				live := uint64(b.Live())
				c.out.Add(live)
				c.drops.Add(uint64(b.Len()) - live)
				if err := drainTo(dl, b, live, consume); err != nil {
					errOnce.Do(func() { sinkErr = err })
					ledger.Add(flight.StageDrain, flight.ReasonSinkError, live)
				}
			}
		}(q)
	}
	return func() (uint64, uint64, error) {
		wg.Wait()
		var out, drops uint64
		for i := range ctrs {
			out += ctrs[i].out.Load()
			drops += ctrs[i].drops.Load()
		}
		return out, drops, sinkErr
	}
}

// sinkConsumer returns a consume function safe to call from many drain
// goroutines: sinks that declare themselves concurrent are called directly,
// everything else is wrapped in a mutex.
func sinkConsumer(sink Sink) func(*netpkt.Batch) error {
	if cs, ok := sink.(ConcurrentSink); ok && cs.ConcurrentSafe() {
		return cs.Consume
	}
	var mu sync.Mutex
	return func(b *netpkt.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		return sink.Consume(b)
	}
}

// mergedDrain consumes the pipeline's single merged output on one goroutine:
// the classic pump's egress, and the parallel pump's for pipelines built
// without ShardOut, so parallel ingress does not depend on per-shard egress.
// Counts are taken before the sink consumes (it may release the batch).
func mergedDrain(sp *dataplane.ShardedPipeline, sink Sink, rec *flight.Recorder) func() (uint64, uint64, error) {
	done := make(chan struct{})
	var out, drops uint64
	var sinkErr error
	ledger := rec.Ledger()
	go func() {
		defer close(done)
		dl := rec.Lane(flight.StageDrain, 0)
		consume := sink.Consume
		for b := range sp.Out() {
			live := uint64(b.Live())
			out += live
			drops += uint64(b.Len()) - live
			if err := drainTo(dl, b, live, consume); err != nil {
				if sinkErr == nil {
					sinkErr = err
				}
				ledger.Add(flight.StageDrain, flight.ReasonSinkError, live)
			}
		}
	}()
	return func() (uint64, uint64, error) {
		<-done
		return out, drops, sinkErr
	}
}

// ringPush spins a full ring until the slot frees or ctx dies. The ring is
// bounded backpressure: a slow worker stalls only the readers feeding it.
func ringPush(ctx context.Context, r *spscRing, p *netpkt.Packet) bool {
	for spins := 0; ; spins++ {
		if r.Push(p) {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// releaseAll returns read-but-undelivered packets to their arenas.
func releaseAll(pkts []*netpkt.Packet) {
	for _, p := range pkts {
		netpkt.PutPacket(p)
	}
}

// drainAbandoned releases everything still queued (or arriving) on worker
// q's rings after an aborted run, booking each packet as a ring-stage loss.
// Readers observe the same cancellation and close their rings; the bounded
// wait covers a reader stuck in a blocking Next, which releases its own
// read batch once it checks ctx and so never pushes after this window.
func drainAbandoned(rings [][]*spscRing, q int, ledger *flight.Ledger) {
	var lost uint64
	defer func() { ledger.Add(flight.StageRing, flight.ReasonAbandoned, lost) }()
	for attempt := 0; attempt < 1024; attempt++ {
		done := true
		for r := range rings {
			ring := rings[r][q]
			for {
				p, ok := ring.Pop()
				if !ok {
					break
				}
				netpkt.PutPacket(p)
				lost++
			}
			if !ring.Drained() {
				done = false
			}
		}
		if done {
			return
		}
		runtime.Gosched()
		time.Sleep(50 * time.Microsecond)
	}
}

// pumpParallel is the RXWorkers > 1 plane: up to RXWorkers source readers
// classify packets with batch RSS and deal them into per-(reader,queue)
// SPSC rings; one RX worker per NIC queue pops its rings, runs conntrack,
// builds arena batches, and injects into its own shard independently of
// every other queue. Per-flow order is preserved end to end because the
// source split guarantees no flow spans two readers, RSS pins each flow to
// one queue, and a (reader, queue) ring is strictly FIFO.
//
// Cancellation takes effect at the next packet or injection; a source
// blocked in Next must be closed to unblock it, exactly as with the
// single-reader pump.
func pumpParallel(ctx context.Context, src Source, sp *dataplane.ShardedPipeline, sink Sink, cfg PumpConfig) (*PumpStats, error) {
	queues := cfg.NIC.Queues()
	ringSize := cfg.RingSize
	if ringSize <= 0 {
		ringSize = 512
	}

	// Split the source into independent readers (capped at RXWorkers). A
	// source that cannot split runs one reader; the worker plane still
	// parallelizes per queue.
	subs := []Source{src}
	if ss, ok := src.(SplittableSource); ok {
		var err error
		subs, err = ss.Split(cfg.RXWorkers)
		if err != nil {
			return nil, err
		}
	}
	readers := len(subs)
	defer func() {
		// Sub-sources created by the split are ours; the caller's original
		// source is not.
		for _, sub := range subs {
			if sub != src {
				sub.Close()
			}
		}
	}()

	ft := flowtable.NewSharded[struct{}](cfg.FlowStripes, cfg.FlowCapacity)
	var clock replayClock
	if cfg.FlowTTL > 0 {
		ft.SetTTL(cfg.FlowTTL, clock.Now)
	}

	st := &PumpStats{Readers: readers, Workers: queues}
	start := time.Now()
	sp.Start(ctx)

	rec := cfg.Flight
	ledger := rec.Ledger()

	var wait func() (uint64, uint64, error)
	if sp.PerShardOut() {
		wait = parallelDrain(sp, sink, rec)
	} else {
		wait = mergedDrain(sp, sink, rec)
	}

	rings := make([][]*spscRing, readers)
	for r := range rings {
		rings[r] = make([]*spscRing, queues)
		for q := range rings[r] {
			rings[r][q] = newSPSCRing(ringSize)
		}
	}
	if rec != nil {
		// One occupancy probe per queue column: the sampler sums the
		// per-reader rings feeding worker q (atomic cursor reads, safe
		// from the sampler goroutine).
		ringCap := rings[0][0].Cap() * readers
		for q := 0; q < queues; q++ {
			q := q
			rec.AddQueue(flight.StageRing, q, func() (int, int) {
				n := 0
				for r := range rings {
					n += rings[r][q].Len()
				}
				return n, ringCap
			})
		}
	}

	var (
		errOnce sync.Once
		runErr  error
		nextID  atomic.Uint64
	)
	fail := func(err error) {
		if err != nil {
			errOnce.Do(func() { runErr = err })
		}
	}

	var readerWG sync.WaitGroup
	for r, sub := range subs {
		readerWG.Add(1)
		go func(r int, src Source) {
			defer readerWG.Done()
			if cfg.PinWorkers {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			myRings := rings[r]
			rl := rec.Lane(flight.StageRead, r)
			// A reader's batches never reach a shard as such, so its lane
			// numbers them itself and applies the rule to that number.
			var seq uint64
			buf := make([]*netpkt.Packet, 0, cfg.BatchSize)
			var qs []int
			for {
				obs := rl.Observe(seq)
				var loopStart, readEnd int64
				if obs {
					loopStart = rl.Now()
				}
				buf = buf[:0]
				var rdErr error
				for len(buf) < cfg.BatchSize {
					p, err := src.Next()
					if err != nil {
						rdErr = err
						break
					}
					now := p.Arrival
					if now <= 0 {
						now = time.Since(start).Nanoseconds()
					}
					clock.Observe(now)
					buf = append(buf, p)
				}
				if ctx.Err() != nil {
					// Cancelled: whatever was just read never reaches a
					// ring, so it is ours to release. These packets were
					// never counted by a worker, so they live only in the
					// ledger.
					ledger.Add(flight.StageRead, flight.ReasonCtxCanceled, uint64(len(buf)))
					releaseAll(buf)
					fail(ctx.Err())
					break
				}
				qs = cfg.NIC.QueueBatch(buf, qs[:0])
				if obs {
					// Busy covers read + RSS classify; the ring-push loop
					// below is backpressure and accrues as stall.
					readEnd = rl.Now()
					rl.AddBusy(readEnd - loopStart)
				}
				aborted := false
				for i, p := range buf {
					if !ringPush(ctx, myRings[qs[i]], p) {
						ledger.Add(flight.StageRead, flight.ReasonCtxCanceled, uint64(len(buf)-i))
						releaseAll(buf[i:])
						fail(ctx.Err())
						aborted = true
						break
					}
				}
				if obs {
					pushEnd := rl.Now()
					rl.AddStall(pushEnd - readEnd)
					rl.Span(seq, len(buf), loopStart, pushEnd)
				}
				seq++
				if aborted {
					break
				}
				if rdErr != nil {
					if rdErr != io.EOF {
						fail(rdErr)
					}
					break
				}
			}
			for _, ring := range myRings {
				ring.Close()
			}
		}(r, sub)
	}

	workers := make([]rxCounters, queues)
	var workerWG sync.WaitGroup
	for q := 0; q < queues; q++ {
		workerWG.Add(1)
		go func(q int) {
			defer workerWG.Done()
			if cfg.PinWorkers {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			ws := &workers[q]
			arena := cfg.NIC.Arena(q)
			wl := rec.Lane(flight.StageRX, q)
			il := rec.Lane(flight.StageInject, q)
			cl := rec.Lane(flight.StageConntrack, q)
			// Each worker owns a contiguous slice of conntrack stripes, so
			// the lazy TTL sweep parallelizes without double-visiting.
			expLo := q * cfg.FlowStripes / queues
			expHi := (q + 1) * cfg.FlowStripes / queues
			// cur takes its ID when its first packet is popped, so the rule
			// is known for the whole of its life: obs is whether cur is
			// observed, batchStart when it was opened if so.
			var cur *netpkt.Batch
			var obs bool
			var batchStart int64
			flush := func() bool {
				if cur == nil {
					return true
				}
				n, id := len(cur.Packets), cur.ID
				var injStart int64
				if obs {
					// The rx span covers building this batch, first pop to
					// handoff, and that is the worker's busy time: pops,
					// conntrack touches and the appends.
					injStart = wl.Now()
					wl.AddBusy(injStart - batchStart)
					wl.Span(id, n, batchStart, injStart)
				}
				if !sp.InjectShard(ctx, q, cur) {
					cur.Release()
					cur = nil
					// These packets were popped and counted; the ledger
					// entry keeps Packets == Out + Drops + ledger exact.
					ledger.Add(flight.StageInject, flight.ReasonInjectRefused, uint64(n))
					ws.released.Add(uint64(n))
					return false
				}
				cur = nil
				il.Observe(id)
				var injEnd int64
				if obs {
					// Shard-inbox wait is backpressure, not work.
					injEnd = il.Now()
					il.AddStall(injEnd - injStart)
					il.Span(id, n, injStart, injEnd)
				}
				ws.batches.Add(1)
				if cfg.FlowTTL > 0 {
					cl.Observe(id)
					ft.ExpireTailRange(expLo, expHi, cfg.ExpiryBudget)
					if obs {
						ct1 := cl.Now()
						cl.AddBusy(ct1 - injEnd)
						cl.Span(id, 0, injEnd, ct1)
					}
				}
				if n := int64(ft.Len()); n > ws.peak.Load() {
					ws.peak.Store(n)
				}
				return true
			}
			idle := 0
			for {
				got := 0
				for r := range rings {
					ring := rings[r][q]
					for {
						p, ok := ring.Pop()
						if !ok {
							break
						}
						got++
						if ft.Touch(p.FlowID, func() struct{} { return struct{}{} }) {
							ws.flows.Add(1)
						}
						ws.packets.Add(1)
						ws.bytes.Add(uint64(len(p.Data)))
						if cur == nil {
							cur = arena.GetBatch(cfg.BatchSize)
							cur.ID = nextID.Add(1) - 1
							if obs = wl.Observe(cur.ID); obs {
								batchStart = wl.Now()
							}
						}
						cur.Packets = append(cur.Packets, p)
						if len(cur.Packets) >= cfg.BatchSize {
							if !flush() {
								fail(ctx.Err())
								drainAbandoned(rings, q, ledger)
								return
							}
						}
					}
				}
				if got > 0 {
					idle = 0
					continue
				}
				idle++
				done := true
				for r := range rings {
					if !rings[r][q].Drained() {
						done = false
						break
					}
				}
				// Starved for a while (or finishing): push the partial batch
				// out rather than sitting on its latency.
				if done || idle >= 8 {
					if !flush() {
						fail(ctx.Err())
						drainAbandoned(rings, q, ledger)
						return
					}
				}
				if done {
					return
				}
				if idle < 128 {
					runtime.Gosched()
				} else {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}(q)
	}

	readerWG.Wait()
	workerWG.Wait()
	sp.CloseInput()
	out, drops, sinkErr := wait()
	if err := sp.Wait(); err != nil {
		fail(err)
	}
	fail(sinkErr)

	var released uint64
	for i := range workers {
		w := &workers[i]
		st.Packets += w.packets.Load()
		st.Bytes += w.bytes.Load()
		st.Batches += w.batches.Load()
		st.Flows += w.flows.Load()
		released += w.released.Load()
		if p := int(w.peak.Load()); p > st.PeakFlows {
			st.PeakFlows = p
		}
	}
	st.OutPackets, st.Drops = out, drops
	st.finish(start, ft, sp, released, ledger)
	return st, runErr
}
