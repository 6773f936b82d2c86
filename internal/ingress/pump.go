package ingress

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// PumpConfig tunes a replay run.
type PumpConfig struct {
	// BatchSize is how many packets are read from the source per injected
	// batch (default 64).
	BatchSize int
	// NIC switches to direct per-queue injection: each read batch is
	// demultiplexed by RSS queue and the per-queue sub-batches go straight
	// to the owning shard (ShardedPipeline.InjectShard), bypassing the
	// funnel dispatcher. NIC.Queues() must equal the pipeline's shard
	// count. Nil feeds everything through sp.In().
	NIC *NIC
	// FlowTTL expires conntrack entries idle longer than this many
	// replay-clock nanoseconds (capture timestamps when the source has
	// them, wall time otherwise). 0 keeps flows until capacity eviction.
	FlowTTL int64
	// FlowCapacity bounds the conntrack table (default 2^21 ≈ 2M flows).
	FlowCapacity int
	// FlowStripes is the conntrack stripe count (default 64).
	FlowStripes int
	// ExpiryBudget caps how many stale conntrack entries are lazily
	// reclaimed per injected batch (default 64) — the incremental sweep
	// that replaces stop-the-world expiry.
	ExpiryBudget int
	// RXWorkers is the ingress-parallelism knob; callers pass the NIC's
	// queue count. <= 1 keeps the classic single-goroutine pump, the only
	// shape for a source without a NIC. Any larger value selects the
	// parallel plane: up to RXWorkers source readers (sources that cannot
	// split run fewer) feed per-queue SPSC rings, and one RX worker per
	// NIC queue builds arena batches, touches conntrack, and injects into
	// its own shard independently. Requires NIC (per-queue injection is
	// what the workers parallelize over).
	RXWorkers int
	// PinWorkers locks every reader and RX worker goroutine to its own OS
	// thread (runtime.LockOSThread) — the RX-core discipline, pairing
	// with dataplane.Config.PinOSThread on the shard side.
	PinWorkers bool
	// RingSize is the capacity of each reader→worker SPSC ring (default
	// 512). One ring exists per (reader, queue) pair so every ring keeps
	// exactly one producer and one consumer.
	RingSize int
	// Flight, when non-nil, threads the pipeline flight recorder through
	// the ingress plane: readers, RX workers, conntrack sweeps, shard
	// injection, and drains count every batch and record lifecycle spans
	// and busy/stall time for the observed ones (flight.Observed), the SPSC
	// rings register depth probes, and every drop/abort path books its
	// packets in the loss ledger. Nil disables all of it at the cost of one
	// nil check per site.
	Flight *flight.Recorder
}

// PumpStats reports what a replay run did.
type PumpStats struct {
	Packets uint64 // packets read from the source and injected
	Bytes   uint64 // wire bytes injected
	Batches uint64 // batches injected (sub-batches in NIC mode)

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

	// P99 is the p99 dispatch→release latency. It is only populated when
	// the pipeline was built with dataplane Metrics enabled; E2EMeasured
	// distinguishes "not measured" from a genuine (near-)zero tail.
	P99 time.Duration
	// E2EMeasured reports whether the latency probe actually recorded —
	// true iff the pipeline ran with Metrics enabled. When false, P99 is
	// meaningless and renders as "n/a".
	E2EMeasured bool

	Readers int // source readers that ran (1 = single-reader pump)
	Workers int // per-queue RX workers (0 = single-reader pump)
}

// E2ELabel renders the p99 end-to-end latency for humans: "n/a" when the
// run had no latency probe, the rounded duration otherwise.
func (st *PumpStats) E2ELabel() string {
	if !st.E2EMeasured {
		return "n/a"
	}
	return st.P99.Round(time.Microsecond).String()
}

// String summarizes the run on one line.
func (st *PumpStats) String() string {
	return fmt.Sprintf("pump: %d pkts %d batches %.0f pps %d flows (%d expired, %d evicted) out=%d drops=%d p99=%s (%d readers, %d workers)",
		st.Packets, st.Batches, st.PPS, st.Flows, st.ExpiredFlows, st.EvictedFlows, st.OutPackets, st.Drops,
		st.E2ELabel(), st.Readers, st.Workers)
}

// finish fills in what both pumps derive once the pipeline has drained: the
// flow ledger's exits, the rate, the boundary's p99 and the packets stranded
// by cancellation. released counts packets that are in st.Packets but that
// the pump released itself.
func (st *PumpStats) finish(start time.Time, ft *flowtable.Sharded[struct{}],
	sp *dataplane.ShardedPipeline, released uint64, ledger *flight.Ledger) {
	st.ExpiredFlows, st.EvictedFlows = ft.Expired(), ft.Evictions()
	st.Duration = time.Since(start)
	if s := st.Duration.Seconds(); s > 0 {
		st.PPS = float64(st.Packets) / s
	}
	if sp.MetricsEnabled() {
		st.P99 = time.Duration(sp.E2E().Percentile(99))
		st.E2EMeasured = true
	}
	// Anything counted in but neither emitted, dropped in the pipeline nor
	// released by the pump was stranded inside it by cancellation — book it
	// so the ledger reconciles exactly:
	//   Packets == OutPackets + Drops + ledger.Total()  (sink errors aside,
	//   which attribute packets already counted as emitted; on the parallel
	//   plane, reader-released and ring-abandoned packets never reach
	//   st.Packets and their ledger rows attribute loss beyond it).
	if stranded := int64(st.Packets) - int64(st.OutPackets) - int64(st.Drops) - int64(released); stranded > 0 {
		ledger.Add(flight.StagePipeline, flight.ReasonCanceled, uint64(stranded))
	}
}

// drainTo hands one output batch to the sink on a drain lane: counted on
// every batch, clocked and recorded as a span when it is observed. live is
// the batch's live count, taken before the sink may release it.
func drainTo(dl *flight.LaneRecorder, b *netpkt.Batch, live uint64, consume func(*netpkt.Batch) error) error {
	if !dl.Observe(b.ID) {
		return consume(b)
	}
	id, t0 := b.ID, dl.Now()
	err := consume(b)
	t1 := dl.Now()
	dl.AddBusy(t1 - t0)
	dl.Span(id, int(live), t0, t1)
	return err
}

// Pump replays a source through a sharded pipeline until the source is
// exhausted (io.EOF) or ctx is cancelled, then drains and returns the run's
// statistics. Pump owns the pipeline lifecycle: sp must be built
// (dataplane.NewSharded) but not started. The sink receives every output
// batch and owns releasing it; nil uses a DiscardSink.
//
// Flow accounting runs inline: every packet touches a sharded conntrack
// table keyed by FlowID, stale entries are reclaimed incrementally
// (ExpiryBudget per batch), and the peak concurrent count is sampled at
// every batch boundary.
func Pump(ctx context.Context, src Source, sp *dataplane.ShardedPipeline, sink Sink, cfg PumpConfig) (*PumpStats, error) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlowCapacity <= 0 {
		cfg.FlowCapacity = 1 << 21
	}
	if cfg.FlowStripes <= 0 {
		cfg.FlowStripes = 64
	}
	if cfg.ExpiryBudget <= 0 {
		cfg.ExpiryBudget = 64
	}
	if cfg.NIC != nil && cfg.NIC.Queues() != sp.NumShards() {
		return nil, fmt.Errorf("ingress: NIC has %d queues but pipeline has %d shards",
			cfg.NIC.Queues(), sp.NumShards())
	}
	if sink == nil {
		sink = &DiscardSink{}
	}
	if cfg.RXWorkers > 1 {
		if cfg.NIC == nil {
			return nil, fmt.Errorf("ingress: RXWorkers=%d requires a NIC (the parallel plane runs one worker per RSS queue)", cfg.RXWorkers)
		}
		return pumpParallel(ctx, src, sp, sink, cfg)
	}

	ft := flowtable.NewSharded[struct{}](cfg.FlowStripes, cfg.FlowCapacity)
	var clock atomic.Int64
	if cfg.FlowTTL > 0 {
		ft.SetTTL(cfg.FlowTTL, clock.Load)
	}

	st := &PumpStats{}
	start := time.Now()
	sp.Start(ctx)

	// Flight lanes (all nil-safe when cfg.Flight is nil): the single
	// reader owns lane 0 of the read/inject/conntrack stages.
	rec := cfg.Flight
	readLane := rec.Lane(flight.StageRead, 0)
	injLane := rec.Lane(flight.StageInject, 0)
	ctLane := rec.Lane(flight.StageConntrack, 0)
	ledger := rec.Ledger()

	// Drain concurrently with injection.
	drain := mergedDrain(sp, sink, rec)

	var (
		pkts      = make([]*netpkt.Packet, 0, cfg.BatchSize)
		byQueue   [][]*netpkt.Packet
		nextID    uint64
		runErr    error
		released  uint64 // packets counted in st.Packets but released by the pump
		readStart int64  // when reading batch nextID began, if it is observed
	)
	if flight.Observed(nextID) {
		readStart = readLane.Now()
	}
	if cfg.NIC != nil {
		byQueue = make([][]*netpkt.Packet, cfg.NIC.Queues())
	}

	// abort books packets a flush released instead of injecting.
	abort := func(reason string, lost int) bool {
		ledger.Add(flight.StageInject, reason, uint64(lost))
		released += uint64(lost)
		pkts = pkts[:0]
		return false
	}
	flush := func() bool {
		if len(pkts) == 0 {
			return true
		}
		n := len(pkts)
		// One flush is one batch to the read, inject and conntrack lanes,
		// filed under the first ID it injects (its only one off NIC
		// steering); an observed flush pays four clock reads, any other none.
		id := nextID
		obs := readLane.Observe(id)
		var flushStart int64
		if obs {
			// The read span covers accumulating this batch from the
			// source (including any source pacing) plus RSS classify.
			flushStart = readLane.Now()
			readLane.AddBusy(flushStart - readStart)
			readLane.Span(id, n, readStart, flushStart)
		}
		if ctx.Err() != nil {
			// Don't race the send against a done context: with buffered
			// shard queues the send can win even though every worker has
			// already exited, stranding the batch in a pipeline that will
			// never drain it. Packets not yet accepted are still ours.
			releaseAll(pkts)
			return abort(flight.ReasonCtxCanceled, n)
		}
		if cfg.NIC == nil {
			b := netpkt.NewBatch(id, append(make([]*netpkt.Packet, 0, len(pkts)), pkts...))
			nextID++
			select {
			case sp.In() <- b:
			case <-ctx.Done():
				// The batch never entered the pipeline; it is still ours
				// to release or the packets leak out of their arenas.
				b.Release()
				return abort(flight.ReasonCtxCanceled, n)
			}
			st.Batches++
		} else {
			for q := range byQueue {
				byQueue[q] = byQueue[q][:0]
			}
			for _, p := range pkts {
				q := cfg.NIC.Queue(p)
				byQueue[q] = append(byQueue[q], p)
			}
			for q, qp := range byQueue {
				if len(qp) == 0 {
					continue
				}
				sb := cfg.NIC.Arena(q).GetBatch(len(qp))
				sb.Packets = append(sb.Packets, qp...)
				sb.ID = nextID
				nextID++
				if !sp.InjectShard(ctx, q, sb) {
					// Injection refused (ctx cancelled): this sub-batch and
					// every later queue's packets are still ours — release
					// them so the arenas balance.
					lost := len(sb.Packets)
					sb.Release()
					for _, rest := range byQueue[q+1:] {
						lost += len(rest)
						releaseAll(rest)
					}
					return abort(flight.ReasonInjectRefused, lost)
				}
				st.Batches++
			}
		}
		pkts = pkts[:0]
		injLane.Observe(id)
		var injEnd int64
		if obs {
			// Funnel or shard-inbox wait is backpressure, not productive work.
			injEnd = injLane.Now()
			injLane.AddStall(injEnd - flushStart)
			injLane.Span(id, n, flushStart, injEnd)
		}
		if cfg.FlowTTL > 0 {
			ctLane.Observe(id)
			ft.ExpireTail(cfg.ExpiryBudget)
			if obs {
				ct1 := ctLane.Now()
				ctLane.AddBusy(ct1 - injEnd)
				ctLane.Span(id, 0, injEnd, ct1)
			}
		}
		if n := ft.Len(); n > st.PeakFlows {
			st.PeakFlows = n
		}
		if flight.Observed(nextID) {
			readStart = readLane.Now()
		}
		return true
	}

	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			runErr = err
			break
		}
		now := p.Arrival
		if now <= 0 {
			now = time.Since(start).Nanoseconds()
		}
		if now > clock.Load() {
			clock.Store(now)
		}
		if ft.Touch(p.FlowID, func() struct{} { return struct{}{} }) {
			st.Flows++
		}
		st.Packets++
		st.Bytes += uint64(len(p.Data))
		pkts = append(pkts, p)
		if len(pkts) >= cfg.BatchSize {
			if !flush() {
				runErr = ctx.Err()
				break
			}
		}
	}
	if runErr == nil {
		if !flush() {
			runErr = ctx.Err()
		}
	} else {
		// A source error leaves read-but-uninjected packets pending;
		// release them rather than stranding them outside their arenas.
		ledger.Add(flight.StageRead, flight.ReasonSourceError, uint64(len(pkts)))
		released += uint64(len(pkts))
		releaseAll(pkts)
		pkts = pkts[:0]
	}

	sp.CloseInput()
	var sinkErr error
	st.OutPackets, st.Drops, sinkErr = drain()
	if err := sp.Wait(); err != nil && runErr == nil {
		runErr = err
	}
	if sinkErr != nil && runErr == nil {
		runErr = sinkErr
	}

	st.finish(start, ft, sp, released, ledger)
	st.Readers = 1
	return st, runErr
}
