package ingress

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// PumpConfig tunes a replay run.
type PumpConfig struct {
	// BatchSize is how many packets a queue gathers per injected batch
	// (default 64).
	BatchSize int
	// NIC is the emulated RSS NIC in front of the pipeline: queue q injects
	// its batches straight into shard q (ShardedPipeline.InjectShard), so
	// NIC.Queues() must equal the shard count. Nil uses
	// NewNIC(sp.NumShards()).
	NIC *NIC
	// FlowTTL expires conntrack entries idle longer than this many
	// replay-clock nanoseconds (capture timestamps when the source has
	// them, wall time otherwise). 0 keeps flows until capacity eviction.
	FlowTTL int64
	// FlowCapacity bounds the conntrack table (default 2^21 ≈ 2M flows).
	FlowCapacity int
	// RXWorkers caps the source readers: a SplittableSource is split into
	// up to this many (<= 1 reads the source as it is). Callers pass the
	// NIC's queue count.
	RXWorkers int
	// PinWorkers locks every reader and RX worker goroutine the pump starts
	// to its own OS thread (runtime.LockOSThread) — the RX-core discipline,
	// pairing with dataplane.Config.PinOSThread on the shard side.
	PinWorkers bool
	// Flight, when non-nil, threads the pipeline flight recorder through
	// the ingress plane: readers, RX workers, conntrack sweeps, shard
	// injection, and drains count every batch and record lifecycle spans
	// and busy/stall time for the observed ones (flight.Observed), the SPSC
	// rings register depth probes, and every drop/abort path books its
	// packets in the loss ledger. Nil disables all of it at the cost of one
	// nil check per site.
	Flight *flight.Recorder

	// Test switches; zero selects the default. flowStripes is the conntrack
	// stripe count (64). expiryBudget caps how many stale conntrack entries
	// are lazily reclaimed per injected batch (64), the incremental sweep
	// that replaces stop-the-world expiry. ringSize is the capacity of each
	// reader→worker SPSC ring (512); one ring exists per (reader, queue)
	// pair, so every ring keeps exactly one producer and one consumer.
	flowStripes  int
	expiryBudget int
	ringSize     int
}

// PumpStats reports what a replay run did.
type PumpStats struct {
	Packets uint64 // packets the readers took from the source
	Bytes   uint64 // wire bytes of those packets
	Batches uint64 // batches injected, over all queues

	// The flow ledger balances at exit: Flows == flows still tracked +
	// ExpiredFlows + EvictedFlows.
	Flows        uint64 // distinct flows seen (conntrack insertions)
	PeakFlows    int    // max concurrent tracked flows
	ExpiredFlows uint64 // conntrack entries reclaimed by TTL (by the per-batch sweep or inside a touch)
	EvictedFlows uint64 // live conntrack entries evicted at the FlowCapacity bound

	OutPackets uint64 // live packets the pipeline emitted
	Drops      uint64 // packets dropped inside the pipeline

	Duration time.Duration // injection start → pipeline drained
	PPS      float64       // Packets / Duration

	// P99 is the p99 inject→release latency. It is only populated when
	// the pipeline was built with dataplane Metrics enabled; E2EMeasured
	// distinguishes "not measured" from a genuine (near-)zero tail.
	P99 time.Duration
	// E2EMeasured reports whether the latency probe actually recorded —
	// true iff the pipeline ran with Metrics enabled. When false, P99 is
	// meaningless and renders as "n/a".
	E2EMeasured bool

	Readers int // source readers that ran
	Workers int // per-queue RX worker goroutines (0: the one reader fed the one queue inline)
}

// E2ELabel renders the p99 end-to-end latency for humans: "n/a" when the
// run had no latency probe, the rounded duration otherwise.
func (st *PumpStats) E2ELabel() string {
	if !st.E2EMeasured {
		return "n/a"
	}
	return st.P99.Round(time.Microsecond).String()
}

// Pump replays a source through a sharded pipeline until the source is
// exhausted (io.EOF) or ctx is cancelled, then drains and returns the run's
// statistics. Pump owns the pipeline lifecycle: sp must be built
// (dataplane.NewSharded) and not started. The sink receives every output
// batch and owns releasing it; nil uses a DiscardSink.
//
// The source is split into up to RXWorkers readers. Each reader stamps the
// replay clock and counts every packet it reads, then hands it to the NIC
// queue that owns it (rxQueue): that queue touches the packet's flow in a
// sharded conntrack table, gathers its arena batch, injects it into its
// shard and sweeps a bounded number of stale flows. The shape follows the
// input. One reader in front of a one-queue NIC calls the queue inline, on
// the calling goroutine, with no RSS hash. Any other shape classifies each
// read with RSS and deals it into per-(reader, queue) SPSC rings, and one
// worker goroutine per queue serves them. Per-flow order holds end to end:
// the split puts each flow on one reader, RSS puts it on one queue, and a
// ring is FIFO.
//
// Every packet counted in Packets is emitted, dropped by the chain, or
// booked in the Flight recorder's loss ledger, so
//
//	Packets == OutPackets + Drops + ledger.Total()
//
// holds at exit, sink errors aside (their ledger rows book packets already
// counted as emitted). Cancellation takes effect at the next injection or
// ring handoff; a source blocked in Next must be closed to unblock it.
func Pump(ctx context.Context, src Source, sp *dataplane.ShardedPipeline, sink Sink, cfg PumpConfig) (*PumpStats, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlowCapacity <= 0 {
		cfg.FlowCapacity = 1 << 21
	}
	if cfg.flowStripes <= 0 {
		cfg.flowStripes = 64
	}
	if cfg.expiryBudget <= 0 {
		cfg.expiryBudget = 64
	}
	if cfg.ringSize <= 0 {
		cfg.ringSize = 512
	}
	nic := cfg.NIC
	if nic == nil {
		nic = NewNIC(sp.NumShards())
	}
	if nic.Queues() != sp.NumShards() {
		return nil, fmt.Errorf("ingress: NIC has %d queues but pipeline has %d shards",
			nic.Queues(), sp.NumShards())
	}
	if sink == nil {
		sink = &DiscardSink{}
	}
	subs := []Source{src}
	if ss, ok := src.(SplittableSource); ok {
		var err error
		if subs, err = ss.Split(max(cfg.RXWorkers, 1)); err != nil {
			return nil, err
		}
	}
	defer func() {
		// Sub-sources created by the split are ours; the caller's original
		// source is not.
		for _, sub := range subs {
			if sub != src {
				sub.Close()
			}
		}
	}()

	rec := cfg.Flight
	p := &pump{ctx: ctx, sp: sp, cfg: cfg, start: time.Now(), ledger: rec.Ledger(),
		ft: flowtable.NewSharded[struct{}](cfg.flowStripes, cfg.FlowCapacity)}
	if cfg.FlowTTL > 0 {
		p.ft.SetTTL(cfg.FlowTTL, p.clock.Now)
	}
	queues := make([]*rxQueue, nic.Queues())
	for q := range queues {
		queues[q] = p.newQueue(q, len(queues), nic.Arena(q))
	}
	readers := make([]*reader, len(subs))
	for r, sub := range subs {
		readers[r] = &reader{pump: p, src: sub, nic: nic}
	}
	st := &PumpStats{Readers: len(readers)}
	sp.Start(ctx)
	wait := drain(sp, sink, rec)

	if len(readers) == 1 && len(queues) == 1 {
		// The reader is the queue's worker: its read lane is the one that
		// spans building each batch.
		queues[0].build = rec.Lane(flight.StageRead, 0)
		readers[0].inline = queues[0]
		readers[0].run()
	} else {
		st.Workers = len(queues)
		p.runRings(readers, queues)
	}

	sp.CloseInput()
	out, drops, sinkErr := wait()
	pipeErr := sp.Wait()

	var released uint64
	var errs []error
	for _, r := range readers {
		st.Packets += r.packets
		st.Bytes += r.bytes
		released += r.released
		errs = append(errs, r.err)
	}
	for _, x := range queues {
		st.Batches += x.batches
		st.Flows += x.flows
		st.PeakFlows = max(st.PeakFlows, x.peak)
		released += x.released
		errs = append(errs, x.err)
	}
	st.OutPackets, st.Drops = out, drops
	st.ExpiredFlows, st.EvictedFlows = p.ft.Expired(), p.ft.Evictions()
	st.Duration = time.Since(p.start)
	if s := st.Duration.Seconds(); s > 0 {
		st.PPS = float64(st.Packets) / s
	}
	if sp.MetricsEnabled() {
		st.P99 = time.Duration(sp.E2E().Percentile(99))
		st.E2EMeasured = true
	}
	// Anything counted in but neither emitted, dropped in the pipeline nor
	// released by the pump was stranded inside the pipeline by cancellation.
	if stranded := int64(st.Packets) - int64(out) - int64(drops) - int64(released); stranded > 0 {
		p.ledger.Add(flight.StagePipeline, flight.ReasonCanceled, uint64(stranded))
	}
	for _, err := range append(errs, pipeErr, sinkErr) {
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// runRings runs the ring shape: one goroutine per reader and one worker
// goroutine per queue, joined before it returns.
func (p *pump) runRings(readers []*reader, queues []*rxQueue) {
	rec := p.cfg.Flight
	// rings[q][r] carries reader r's packets for queue q.
	rings := make([][]*spscRing, len(queues))
	for q := range rings {
		rings[q] = make([]*spscRing, len(readers))
		for r := range rings[q] {
			rings[q][r] = newSPSCRing(p.cfg.ringSize)
		}
		// One occupancy probe per queue: the sum over the rings feeding it
		// (atomic cursor reads, safe from the sampler goroutine).
		col := rings[q]
		rec.AddQueue(flight.StageRing, q, func() (n, capacity int) {
			for _, ring := range col {
				n += ring.Len()
			}
			return n, col[0].Cap() * len(col)
		})
	}
	var wg sync.WaitGroup
	spawn := func(run func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.cfg.PinWorkers {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			run()
		}()
	}
	for q, x := range queues {
		x.build = rec.Lane(flight.StageRX, q)
		spawn(func() { x.serve(rings[q]) })
	}
	for r, rd := range readers {
		rd.lane = rec.Lane(flight.StageRead, r)
		rd.rings = make([]*spscRing, len(queues))
		for q := range queues {
			rd.rings[q] = rings[q][r]
		}
		spawn(rd.run)
	}
	wg.Wait()
}

// drain consumes the pipeline's output until it closes — the N OutShard
// channels when sp was built with ShardOut, else the one merged Out() — with
// one goroutine and one drain lane per channel. Each batch is counted before
// the sink, which may release it, consumes it. The returned function joins
// the goroutines and reports emitted packets, drops and the first sink error.
func drain(sp *dataplane.ShardedPipeline, sink Sink, rec *flight.Recorder) func() (out, drops uint64, err error) {
	chans := []<-chan *netpkt.Batch{sp.Out()}
	consume := sink.Consume
	if sp.PerShardOut() {
		chans = make([]<-chan *netpkt.Batch, sp.NumShards())
		for q := range chans {
			chans[q] = sp.OutShard(q)
		}
		consume = sinkConsumer(sink)
	}
	ledger := rec.Ledger()
	type tally struct {
		out, drops uint64
		err        error
	}
	tallies := make([]tally, len(chans))
	var wg sync.WaitGroup
	for q, ch := range chans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dl := rec.Lane(flight.StageDrain, q)
			var t tally
			for b := range ch {
				live := uint64(b.Live())
				t.out += live
				t.drops += uint64(b.Len()) - live
				id, obs := b.ID, dl.Observe(b.ID)
				var t0 int64
				if obs {
					t0 = dl.Now()
				}
				if err := consume(b); err != nil {
					if t.err == nil {
						t.err = err
					}
					ledger.Add(flight.StageDrain, flight.ReasonSinkError, live)
				}
				if obs {
					t1 := dl.Now()
					dl.AddBusy(t1 - t0)
					dl.Span(id, int(live), t0, t1)
				}
			}
			tallies[q] = t
		}()
	}
	return func() (out, drops uint64, err error) {
		wg.Wait()
		for _, t := range tallies {
			out += t.out
			drops += t.drops
			if err == nil {
				err = t.err
			}
		}
		return out, drops, err
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
