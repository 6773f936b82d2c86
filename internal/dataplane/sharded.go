package dataplane

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// This file implements the sharded execution layer: N replicas of one
// element graph running as independent pipelines, fed by a flow-affinity
// dispatcher and drained through per-shard accounting forwarders — or,
// when global batch order must be restored, a merger. It is the
// "consolidated instances in parallel" scaling step of CoCo/NF-parallelism
// follow-up work layered on top of the paper's per-chain pipeline: one
// Pipeline scales with the number of *stages*, a ShardedPipeline
// additionally scales with the number of *cores*.
//
// Flow affinity: every packet is dispatched by Packet.FlowKey, so all
// packets of a flow traverse the same replica. Stateful NFs (NAT mappings,
// flowtable entries, IDS stream reassembly) therefore observe each flow
// exactly as the single pipeline would. Cross-flow shared state is
// shard-local — e.g. each replica's NAT allocates ports from its own range
// — the same semantics RSS gives multi-queue NIC deployments.

// ShardedConfig tunes a ShardedPipeline. The embedded Config applies to
// every shard's inner pipeline.
type ShardedConfig struct {
	Config
	// Shards is the replica count; <= 0 selects DefaultShards().
	Shards int
	// Ordered enables global ordered release: output batches are merged
	// back per injected batch ID and released in injection order through a
	// completion queue, exactly like Config.PreserveOrder but across
	// shards. Requires the same graph shape PreserveOrder does: single
	// sink, one output batch per input batch, consecutive ascending batch
	// IDs.
	Ordered bool
	// ShardOut enables per-shard output: each replica's accounting
	// forwarder feeds its own OutShard(q) channel instead of the shared
	// Out(). This is the egress half of the parallel ingress plane: N drain
	// goroutines consume N shards with no merge point, so output
	// throughput scales with the shard count instead of serializing on
	// one channel. Boundary accounting (Stats.Out*, the e2e latency
	// probe) is the same code either way. Incompatible with Ordered
	// (ordered release is definitionally a global merge); Out() must not
	// be consumed in this mode.
	ShardOut bool
	// ShardBy overrides the dispatcher's flow→shard mapping (default
	// FlowKey() % shards). An emulated multi-queue NIC passes its RSS
	// hash+indirection here so the funnel path (In()) and the direct
	// per-queue path (InjectShard) agree on which replica owns a flow —
	// required for the two paths to produce identical per-shard streams,
	// and so byte-identical stateful NF behaviour. Must be pure
	// (packet-determined): the mapping IS the flow-affinity contract.
	ShardBy func(p *netpkt.Packet, shards int) int
}

// DefaultShards derives the shard count from the machine: one replica per
// CPU, capped so a large machine does not multiply per-replica queue memory
// past any plausible benefit.
func DefaultShards() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// ShardedPipeline runs N replicas of one element graph behind a
// flow-affinity dispatcher. The external surface mirrors Pipeline: In/Out
// channels, CloseInput, Wait, Stats, Snapshot.
type ShardedPipeline struct {
	cfg    ShardedConfig
	shards []*Pipeline
	// start is the shared monotonic origin: every shard's trace clock is
	// re-based onto it at construction, so TraceEvent.NanosSinceStart values
	// from different replicas (and across Apply epochs) are comparable on
	// one timeline.
	start time.Time

	// Stats counts batches/packets at the sharded boundary: In* at
	// dispatch (before splitting), Out* at release (after merging).
	Stats Stats

	// lat records dispatch→release latency at the sharded boundary (nil
	// when Config.Metrics is off), dispatcher and merger queueing included.
	// It is the deployment's only tracker: the shards carry none.
	lat *e2eTracker

	in     chan *netpkt.Batch
	out    chan *netpkt.Batch
	outs   []chan *netpkt.Batch // per-shard outputs (ShardOut mode)
	done   chan struct{}
	cancel context.CancelFunc

	// flDispatch records a flight span per funnel-dispatched batch (split
	// decision + shard sends); nil when flight recording is off or batches
	// arrive via InjectShard only.
	flDispatch *flight.LaneRecorder

	// mu guards parts and firstID: the dispatcher registers how many
	// shard-local sub-batches each injected batch ID was split into
	// *before* sending any of them, so the merger can never observe an
	// unregistered completion.
	mu      sync.Mutex
	parts   map[uint64]int
	firstID uint64
	gotID   bool

	runErr  error
	errOnce sync.Once
}

// NewSharded builds a stopped sharded pipeline. build is called once per
// shard and must return a structurally identical graph each time (same
// element count, same per-node signatures) — elements are stateful, so
// replicas cannot share one graph. cfg.Shards <= 0 selects DefaultShards().
func NewSharded(build func(shard int) (*element.Graph, error), cfg ShardedConfig) (*ShardedPipeline, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards()
	}
	if cfg.ShardOut && cfg.Ordered {
		return nil, fmt.Errorf("dataplane: ShardOut is incompatible with Ordered (ordered release is a global merge)")
	}
	sp := &ShardedPipeline{
		cfg:    cfg,
		shards: make([]*Pipeline, cfg.Shards),
		start:  time.Now(),
		in:     make(chan *netpkt.Batch, max(cfg.QueueDepth, 16)),
		out:    make(chan *netpkt.Batch, max(cfg.QueueDepth, 16)),
		done:   make(chan struct{}),
		parts:  make(map[uint64]int),
	}
	if cfg.Metrics {
		sp.lat = newE2ETracker()
	}
	if cfg.ShardOut {
		sp.outs = make([]chan *netpkt.Batch, cfg.Shards)
		for i := range sp.outs {
			sp.outs[i] = make(chan *netpkt.Batch, max(cfg.QueueDepth, 16))
		}
	}
	// The sharded pipeline owns the boundary: shards get their flight lanes
	// at their own shard index and no latency tracker of their own.
	rec := cfg.Flight
	var ref *element.Graph
	for i := range sp.shards {
		g, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("dataplane: shard %d graph: %w", i, err)
		}
		if ref == nil {
			ref = g
		} else if err := sameShape(ref, g); err != nil {
			return nil, fmt.Errorf("dataplane: shard %d graph differs from shard 0: %w", i, err)
		}
		p, err := newPipeline(g, cfg.Config)
		if err != nil {
			return nil, fmt.Errorf("dataplane: shard %d: %w", i, err)
		}
		// Re-base the shard's trace clock onto the sharded origin: replicas
		// are constructed one after another, and without a shared base their
		// NanosSinceStart timelines would drift apart by the construction
		// skew.
		p.start = sp.start
		if rec != nil {
			p.initFlight(rec, i)
		}
		sp.shards[i] = p
	}
	if rec != nil {
		sp.flDispatch = rec.Lane(flight.StageDispatch, 0)
		rec.AddQueue(flight.StageDispatch, 0, func() (int, int) {
			return len(sp.in), cap(sp.in)
		})
	}
	return sp, nil
}

// sameShape verifies two graphs are replicas: equal node counts and
// pairwise-equal element signatures. Shard aggregation (Snapshot) sums
// counters by node ID, which is only meaningful across identical shapes.
func sameShape(a, b *element.Graph) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("node count %d vs %d", b.Len(), a.Len())
	}
	for i := 0; i < a.Len(); i++ {
		id := element.NodeID(i)
		sa, sb := a.Node(id).Signature(), b.Node(id).Signature()
		if sa != sb {
			return fmt.Errorf("node %d signature %q vs %q", i, sb, sa)
		}
	}
	return nil
}

// Start launches every shard plus the dispatcher and the egress goroutines.
func (sp *ShardedPipeline) Start(ctx context.Context) {
	ctx, sp.cancel = context.WithCancel(ctx)
	for _, s := range sp.shards {
		s.Start(ctx)
	}
	// Propagate the first shard failure: cancel the shared context so the
	// dispatcher and the other shards unwind instead of deadlocking on a
	// dead replica's full input queue.
	for _, s := range sp.shards {
		go func(p *Pipeline) {
			if err := p.Wait(); err != nil {
				sp.fail(err)
			}
		}(s)
	}

	go sp.dispatch(ctx)

	if !sp.cfg.Ordered {
		// Unordered egress is one accounting forwarder per shard and nothing
		// behind it: into the shard's own OutShard(q) under ShardOut, else
		// straight into Out(). The boundary counters and the latency probe
		// are atomics, so N forwarders observe exactly what one merger would,
		// without the serialization or the extra hop.
		var fwdWG sync.WaitGroup
		for i, s := range sp.shards {
			dst := sp.out
			if sp.cfg.ShardOut {
				dst = sp.outs[i]
			}
			fwdWG.Add(1)
			go func(p *Pipeline, dst chan *netpkt.Batch) {
				defer fwdWG.Done()
				if dst != sp.out {
					defer close(dst)
				}
				for b := range p.Out() {
					if !sp.release(ctx, dst, b) {
						return
					}
				}
			}(s, dst)
		}
		go func() {
			fwdWG.Wait()
			close(sp.out)
			close(sp.done)
		}()
		return
	}

	// Ordered release is a global merge: fan the shard outputs into one
	// channel for the merger.
	merged := make(chan *netpkt.Batch, cap(sp.out))
	var fanWG sync.WaitGroup
	for _, s := range sp.shards {
		fanWG.Add(1)
		go func(p *Pipeline) {
			defer fanWG.Done()
			for b := range p.Out() {
				select {
				case merged <- b:
				case <-ctx.Done():
					return
				}
			}
		}(s)
	}
	go func() {
		fanWG.Wait()
		close(merged)
	}()

	go sp.merge(ctx, merged)
}

// release books one batch leaving the sharded boundary (Stats.Out*, the
// dispatch→release latency probe) and hands it to dst. Returns false when
// the context was cancelled first.
func (sp *ShardedPipeline) release(ctx context.Context, dst chan<- *netpkt.Batch, b *netpkt.Batch) bool {
	sp.Stats.OutBatches.Add(1)
	live := uint64(b.Live())
	sp.Stats.OutPackets.Add(live)
	sp.Stats.DropPackets.Add(uint64(b.Len()) - live)
	if sp.lat != nil {
		sp.lat.observe(b.ID, time.Since(sp.start).Nanoseconds())
	}
	select {
	case dst <- b:
		return true
	case <-ctx.Done():
		return false
	}
}

// dispatch partitions each injected batch across shards by flow affinity.
// A batch whose packets all map to one shard is forwarded as-is (the common
// case once upstream batching is flow-aware); mixed batches are split into
// per-shard sub-batches that preserve SeqInBatch, so an Ordered merge can
// reconstruct the exact original packet order.
func (sp *ShardedPipeline) dispatch(ctx context.Context) {
	n := len(sp.shards)
	defer func() {
		for _, s := range sp.shards {
			s.CloseInput()
		}
	}()
	// byShard and parts are reused across batches; only the per-sub-batch
	// packet slices are allocated when a batch actually splits.
	type part struct {
		shard int
		b     *netpkt.Batch
	}
	byShard := make([][]*netpkt.Packet, n)
	parts := make([]part, 0, n)
	fl := sp.flDispatch
	for b := range sp.in {
		// Bookkeeping must read the batch before any shard send: after
		// sendShard the receiving replica owns it.
		id := b.ID
		obs := fl.Observe(id)
		var dStart, sendStart int64
		if obs {
			dStart = fl.Now()
		}
		live, bytes := b.LiveBytes()
		sp.Stats.InBatches.Add(1)
		sp.Stats.InPackets.Add(uint64(live))
		sp.Stats.InBytes.Add(uint64(bytes))
		if sp.lat != nil {
			sp.lat.record(b.ID, time.Since(sp.start).Nanoseconds())
		}
		sp.mu.Lock()
		if !sp.gotID {
			sp.gotID = true
			sp.firstID = b.ID
		}
		sp.mu.Unlock()

		// One shard needs no affinity scan; neither does an empty batch,
		// which rides to shard 0 so Ordered IDs stay dense.
		first, mixed := 0, false
		if n > 1 && len(b.Packets) > 0 {
			for i := range byShard {
				byShard[i] = byShard[i][:0]
			}
			first = sp.shardOf(b.Packets[0], n)
			for _, p := range b.Packets {
				s := sp.shardOf(p, n)
				mixed = mixed || s != first
				byShard[s] = append(byShard[s], p)
			}
		}
		parts = parts[:0]
		if !mixed {
			parts = append(parts, part{first, b})
		} else {
			for s, pkts := range byShard {
				if len(pkts) > 0 {
					parts = append(parts, part{s, b.Derive(append(make([]*netpkt.Packet, 0, len(pkts)), pkts...))})
				}
			}
		}
		sp.register(id, len(parts))
		if obs {
			sendStart = fl.Now()
		}
		for _, pt := range parts {
			if !sp.sendShard(ctx, pt.shard, pt.b) {
				return
			}
		}
		if obs {
			// Split work (affinity scan + sub-batch copies) counts as busy,
			// blocked shard-inbox sends as stall — a dispatcher waiting on a
			// slow replica is backpressured, not the bottleneck.
			end := fl.Now()
			fl.AddBusy(sendStart - dStart)
			fl.AddStall(end - sendStart)
			fl.Span(id, live, dStart, end)
		}
	}
}

// register records the expected sub-batch count for an in-flight batch ID
// (consulted by the Ordered merger).
func (sp *ShardedPipeline) register(id uint64, parts int) {
	if !sp.cfg.Ordered {
		return
	}
	sp.mu.Lock()
	sp.parts[id] = parts
	sp.mu.Unlock()
}

// shardOf maps a packet to its owning replica: cfg.ShardBy when set,
// otherwise FlowKey modulo the shard count. A ShardBy result outside
// [0, shards) is a broken affinity contract and panics loudly — silently
// remapping it would split flows across replicas and corrupt NF state in
// ways that only surface as wrong answers much later.
func (sp *ShardedPipeline) shardOf(p *netpkt.Packet, n int) int {
	if f := sp.cfg.ShardBy; f != nil {
		s := f(p, n)
		if s < 0 || s >= n {
			panic(fmt.Sprintf("dataplane: ShardBy returned %d for %d shards", s, n))
		}
		return s
	}
	return int(p.FlowKey() % uint64(n))
}

func (sp *ShardedPipeline) sendShard(ctx context.Context, shard int, b *netpkt.Batch) bool {
	select {
	case sp.shards[shard].In() <- b:
		return true
	case <-ctx.Done():
		return false
	}
}

// InjectShard bypasses the funnel dispatcher and hands a batch directly to
// one replica — the emulated multi-queue NIC's per-queue path, where RSS
// already decided flow placement the way real hardware steers flows to
// queues. The caller owns the affinity contract: every packet of a flow
// must always land on the same shard (use the same mapping ShardBy would),
// and batch IDs must be unique across all queues while in flight (the
// latency probe is keyed by ID). Boundary accounting and the
// dispatch→release latency probe behave exactly as funnel injection.
//
// InjectShard cannot be combined with Ordered — per-queue IDs are not
// globally dense, so the completion queue would stall forever waiting for
// gaps; it panics if cfg.Ordered is set. Shutdown still flows through the
// funnel: stop all InjectShard callers first, then CloseInput() — the
// dispatcher draining sp.in and closing the shard inputs is what
// propagates the close downstream.
func (sp *ShardedPipeline) InjectShard(ctx context.Context, shard int, b *netpkt.Batch) bool {
	if sp.cfg.Ordered {
		panic("dataplane: InjectShard is incompatible with ShardedConfig.Ordered")
	}
	live, bytes := b.LiveBytes()
	sp.Stats.InBatches.Add(1)
	sp.Stats.InPackets.Add(uint64(live))
	sp.Stats.InBytes.Add(uint64(bytes))
	if sp.lat != nil {
		sp.lat.record(b.ID, time.Since(sp.start).Nanoseconds())
	}
	return sp.sendShard(ctx, shard, b)
}

// merge drains the fan-in of shard outputs for Ordered mode: it regroups
// sub-batches per injected batch ID, merges them back into the original
// packet order, and releases whole batches in injection order through a
// CompletionQueue — the same machinery the single pipeline's PreserveOrder
// sink uses.
func (sp *ShardedPipeline) merge(ctx context.Context, merged <-chan *netpkt.Batch) {
	defer close(sp.done)
	defer close(sp.out)
	var cq *netpkt.CompletionQueue
	buf := make(map[uint64][]*netpkt.Batch)
	for b := range merged {
		sp.mu.Lock()
		want := sp.parts[b.ID]
		first := sp.firstID
		sp.mu.Unlock()
		if want == 0 {
			want = 1 // unregistered (graph emitted extra batches): pass through
		}
		buf[b.ID] = append(buf[b.ID], b)
		if len(buf[b.ID]) < want {
			continue
		}
		parts := buf[b.ID]
		delete(buf, b.ID)
		sp.mu.Lock()
		delete(sp.parts, b.ID)
		sp.mu.Unlock()
		whole := parts[0]
		if len(parts) > 1 {
			whole = netpkt.Merge(b.ID, parts)
		}
		if cq == nil {
			cq = netpkt.NewCompletionQueue(first)
		}
		cq.Submit(whole, 1)
		cq.Complete(whole.ID)
		for {
			ready := cq.Pop()
			if ready == nil {
				break
			}
			if !sp.release(ctx, sp.out, ready) {
				return
			}
		}
	}
	// Input exhausted: flush incomplete stragglers (possible only when the
	// graph broke the one-batch-per-ID contract) in ascending ID order so
	// nothing is silently dropped.
	for len(buf) > 0 {
		var minID uint64
		found := false
		for id := range buf {
			if !found || id < minID {
				minID, found = id, true
			}
		}
		parts := buf[minID]
		delete(buf, minID)
		whole := parts[0]
		if len(parts) > 1 {
			whole = netpkt.Merge(minID, parts)
		}
		if !sp.release(ctx, sp.out, whole) {
			return
		}
	}
}

// fail records the first error and cancels every shard.
func (sp *ShardedPipeline) fail(err error) {
	sp.errOnce.Do(func() {
		sp.runErr = err
		sp.cancel()
	})
}

// In returns the injection channel (close via CloseInput to drain).
func (sp *ShardedPipeline) In() chan<- *netpkt.Batch { return sp.in }

// Out returns the channel of completed batches. In ShardOut mode nothing is
// ever sent on it (it still closes at drain); consume OutShard(q) instead.
func (sp *ShardedPipeline) Out() <-chan *netpkt.Batch { return sp.out }

// OutShard returns shard q's completed-batch channel — the per-queue TX
// ring of the parallel egress path. Only available in ShardOut mode; it
// panics otherwise, because without the per-shard forwarders the channel
// would never carry anything and a consumer would hang silently.
func (sp *ShardedPipeline) OutShard(q int) <-chan *netpkt.Batch {
	if sp.outs == nil {
		panic("dataplane: OutShard requires ShardedConfig.ShardOut")
	}
	return sp.outs[q]
}

// MetricsEnabled reports whether the pipeline records metrics (Config.Metrics)
// — callers use it to skip reading E2E percentiles that would silently be 0.
func (sp *ShardedPipeline) MetricsEnabled() bool { return sp.cfg.Metrics }

// PerShardOut reports whether the pipeline was built with ShardOut, i.e.
// whether OutShard is usable.
func (sp *ShardedPipeline) PerShardOut() bool { return sp.outs != nil }

// Ordered reports whether the pipeline was built with Ordered, i.e. whether
// InjectShard is ruled out.
func (sp *ShardedPipeline) Ordered() bool { return sp.cfg.Ordered }

// CloseInput signals that no more batches will be injected.
func (sp *ShardedPipeline) CloseInput() { close(sp.in) }

// Wait blocks until every shard has drained and the merger has released
// everything, returning the first shard error, if any.
func (sp *ShardedPipeline) Wait() error {
	<-sp.done
	for _, s := range sp.shards {
		if err := s.Wait(); err != nil {
			return err
		}
	}
	return sp.runErr
}

// NumShards returns the replica count.
func (sp *ShardedPipeline) NumShards() int { return len(sp.shards) }

// Done returns a channel closed when every shard has drained and the merger
// has released everything — the telemetry server's liveness signal.
func (sp *ShardedPipeline) Done() <-chan struct{} { return sp.done }

// Epoch returns the highest placement epoch across replicas (replicas swap
// independently at batch boundaries, so during an Apply they may briefly
// straddle two epochs).
func (sp *ShardedPipeline) Epoch() uint64 {
	var e uint64
	for _, s := range sp.shards {
		if se := s.Epoch(); se > e {
			e = se
		}
	}
	return e
}

// E2E returns the live dispatch→release latency distribution recorded at
// the sharded boundary (covering dispatcher and merger queueing), the same
// distribution Snapshot reports — the cheap accessor the core adaptor
// probes for interference-aware batch sizing. Zero-valued when metrics are
// off.
func (sp *ShardedPipeline) E2E() stats.HistSnapshot { return sp.lat.snapshot() }

// Apply atomically swaps the placement on every replica (see
// Pipeline.Apply). Replicas swap independently at their own next batch
// boundary; flow affinity makes that safe — a flow only ever traverses one
// replica, so per-flow order cannot be violated by shards straddling the
// epoch boundary for a short window.
func (sp *ShardedPipeline) Apply(a hetsim.Assignment) error {
	for _, s := range sp.shards {
		if err := s.Apply(a); err != nil {
			return err
		}
	}
	return nil
}

// ShardSnapshot returns shard i's own report (see Pipeline.Snapshot).
func (sp *ShardedPipeline) ShardSnapshot(i int) *Report { return sp.shards[i].Snapshot() }

// Snapshot aggregates every shard's report into one Report with the same
// shape a single pipeline would produce: per-element counters and
// histograms summed across replicas by node ID, per-edge traffic summed,
// boundary totals taken from the sharded dispatcher/merger. The result
// feeds Intensities/ApplyCPUTimings unchanged, so the allocator's
// live-profile bridge works identically for sharded deployments.
func (sp *ShardedPipeline) Snapshot() *Report {
	reps := make([]*Report, len(sp.shards))
	for i, s := range sp.shards {
		reps[i] = s.Snapshot()
	}
	agg := AggregateReports(reps)
	agg.InBatches = sp.Stats.InBatches.Load()
	agg.OutBatches = sp.Stats.OutBatches.Load()
	agg.InPackets = sp.Stats.InPackets.Load()
	agg.OutPackets = sp.Stats.OutPackets.Load()
	agg.DropPackets = sp.Stats.DropPackets.Load()
	agg.InBytes = sp.Stats.InBytes.Load()
	agg.ElapsedNs = time.Since(sp.start).Nanoseconds()
	// The boundary measurement (dispatch→ordered release) is the latency an
	// external consumer of Out() actually observes, dispatcher and merger
	// queueing included; the shard reports carry none to merge.
	agg.E2E = sp.lat.snapshot()
	return agg
}

// RunBatchesSharded is the sharded counterpart of RunBatches: construct,
// start, inject everything, drain, and return the collected outputs plus
// the pipeline (for Stats and Snapshot).
func RunBatchesSharded(ctx context.Context, build func(shard int) (*element.Graph, error),
	cfg ShardedConfig, batches []*netpkt.Batch) ([]*netpkt.Batch, *ShardedPipeline, error) {
	sp, err := NewSharded(build, cfg)
	if err != nil {
		return nil, nil, err
	}
	sp.Start(ctx)

	var outs []*netpkt.Batch
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for b := range sp.Out() {
			outs = append(outs, b)
		}
	}()

	for _, b := range batches {
		select {
		case sp.In() <- b:
		case <-ctx.Done():
			sp.CloseInput()
			<-collectDone
			return outs, sp, ctx.Err()
		}
	}
	sp.CloseInput()
	<-collectDone
	if err := sp.Wait(); err != nil {
		return outs, sp, err
	}
	return outs, sp, nil
}
