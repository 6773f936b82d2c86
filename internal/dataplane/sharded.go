package dataplane

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// This file implements the sharded execution layer: N replicas of one
// element graph, each a whole Pipeline with its own boundary, fed directly
// by its own receive queue (InjectShard). It is the "consolidated instances
// in parallel" scaling step of CoCo/NF-parallelism follow-up work layered on
// top of the paper's per-chain pipeline: one Pipeline scales with the number
// of *stages*, a ShardedPipeline additionally scales with the number of
// *cores*.
//
// The plane books nothing itself. A batch is booked once, by its replica:
// InjectShard stamps the replica's e2e tracker, the replica's injector books
// In, and the replica's collector books Out, records the e2e sample and
// releases the batch into Out() (or the replica's OutShard(q)). Snapshot and
// E2E aggregate the replicas.
//
// Flow affinity: the injector (the emulated NIC's RSS steering in
// internal/ingress) puts every packet of a flow on the same replica.
// Stateful NFs (NAT mappings, flowtable entries, IDS stream reassembly)
// therefore observe each flow exactly as the single pipeline would, and a
// flow's packets leave in the order they entered. Order across flows is not
// kept: replicas run independently. Cross-flow shared state is shard-local
// — e.g. each replica's NAT allocates ports from its own range — the same
// semantics RSS gives multi-queue NIC deployments.

// ShardedConfig tunes a ShardedPipeline. The embedded Config applies to
// every shard's inner pipeline; its PreserveOrder must be off.
type ShardedConfig struct {
	Config
	// Shards is the replica count; <= 0 selects DefaultShards().
	Shards int
	// ShardOut enables per-shard output: each replica's collector releases
	// into its own OutShard(q) channel instead of the shared Out(). This is
	// the egress half of the parallel ingress plane: N drain goroutines
	// consume N shards with no merge point, so output throughput scales
	// with the shard count instead of serializing on one channel.
	// Accounting is the same either way. Out() must not be consumed in this
	// mode.
	ShardOut bool
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

// ShardedPipeline runs N replicas of one element graph, one per receive
// queue. Batches enter through InjectShard; the rest of the surface mirrors
// Pipeline: Out channel, CloseInput, Wait, Snapshot.
type ShardedPipeline struct {
	cfg    ShardedConfig
	shards []*Pipeline

	out  chan *netpkt.Batch
	done chan struct{}
	// stopped is the run context's Done channel, set by Start: once a shard
	// fails (or Start's context ends) the shards stop reading their inputs,
	// and InjectShard must refuse rather than block.
	stopped <-chan struct{}
	cancel  context.CancelFunc

	runErr  error
	errOnce sync.Once
}

// NewSharded builds a stopped sharded pipeline. build is called once per
// shard and must return a structurally identical graph each time (same
// element count, same per-node signatures) — elements are stateful, so
// replicas cannot share one graph. cfg.Shards <= 0 selects DefaultShards().
//
// cfg.PreserveOrder is rejected: it re-sequences a pipeline's batches by
// dense injection IDs, and a shard sees only the IDs of its own flows, so
// its completion queue would hold every batch after the first gap forever.
func NewSharded(build func(shard int) (*element.Graph, error), cfg ShardedConfig) (*ShardedPipeline, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards()
	}
	if cfg.PreserveOrder {
		return nil, fmt.Errorf("dataplane: a sharded pipeline cannot PreserveOrder (each shard sees only its own flows' batch IDs)")
	}
	sp := &ShardedPipeline{
		cfg:    cfg,
		shards: make([]*Pipeline, cfg.Shards),
		out:    make(chan *netpkt.Batch, max(cfg.QueueDepth, 16)),
		done:   make(chan struct{}),
	}
	// One clock origin for every replica, so trace timelines and ElapsedNs
	// from different replicas are comparable without construction skew.
	origin := time.Now()
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
		out := sp.out
		if cfg.ShardOut {
			out = make(chan *netpkt.Batch, cap(sp.out))
		}
		p, err := newPipeline(g, cfg.Config, i, origin, out)
		if err != nil {
			return nil, fmt.Errorf("dataplane: shard %d: %w", i, err)
		}
		sp.shards[i] = p
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

// Start launches every shard. Once all of them have drained it closes
// the output channels — Out(), and every OutShard(q) under ShardOut.
func (sp *ShardedPipeline) Start(ctx context.Context) {
	ctx, sp.cancel = context.WithCancel(ctx)
	sp.stopped = ctx.Done()
	var wg sync.WaitGroup
	for _, s := range sp.shards {
		s.Start(ctx)
		// Propagate the first shard failure: cancel the shared context so
		// the callers and the other shards unwind instead of deadlocking on
		// a dead replica's full input queue.
		wg.Add(1)
		go func(p *Pipeline) {
			defer wg.Done()
			if err := p.Wait(); err != nil {
				sp.fail(err)
			}
		}(s)
	}
	go func() {
		wg.Wait()
		if sp.cfg.ShardOut {
			for _, s := range sp.shards {
				close(s.out)
			}
		}
		close(sp.out)
		close(sp.done)
	}()
}

// InjectShard hands a batch to one replica — the emulated multi-queue NIC's
// per-queue path, where RSS already decided flow placement the way real
// hardware steers flows to queues. It is the pipeline's only entry. It
// stamps the batch's e2e inject time on the replica's tracker, so the time
// it waits in the shard's input counts; the replica's injector books it.
// The caller owns the affinity contract: every packet of a flow must always
// land on the same shard, and batch IDs must be unique within a replica
// while in flight (its latency probe is keyed by ID). It returns false,
// without taking the batch, when ctx ends or the pipeline has stopped (a
// shard failed, or Start's context ended) before the shard took it. Stop
// every caller before CloseInput.
func (sp *ShardedPipeline) InjectShard(ctx context.Context, shard int, b *netpkt.Batch) bool {
	p := sp.shards[shard]
	if p.lat != nil {
		p.lat.record(b.ID, p.clock().Nanoseconds())
	}
	select {
	case p.in <- b:
		return true
	case <-ctx.Done():
		return false
	case <-sp.stopped:
		return false
	}
}

// fail records the first error and cancels every shard.
func (sp *ShardedPipeline) fail(err error) {
	sp.errOnce.Do(func() {
		sp.runErr = err
		sp.cancel()
	})
}

// Out returns the channel of completed batches. In ShardOut mode nothing is
// ever sent on it (it still closes at drain); consume OutShard(q) instead.
func (sp *ShardedPipeline) Out() <-chan *netpkt.Batch { return sp.out }

// OutShard returns shard q's completed-batch channel — the per-queue TX
// ring of the parallel egress path. Only available in ShardOut mode; it
// panics otherwise, because the replicas then release into Out() and a
// consumer of this channel would hang silently.
func (sp *ShardedPipeline) OutShard(q int) <-chan *netpkt.Batch {
	if !sp.cfg.ShardOut {
		panic("dataplane: OutShard requires ShardedConfig.ShardOut")
	}
	return sp.shards[q].out
}

// MetricsEnabled reports whether the pipeline records metrics (Config.Metrics)
// — callers use it to skip reading E2E percentiles that would silently be 0.
func (sp *ShardedPipeline) MetricsEnabled() bool { return sp.cfg.Metrics }

// PerShardOut reports whether the pipeline was built with ShardOut, i.e.
// whether OutShard is usable.
func (sp *ShardedPipeline) PerShardOut() bool { return sp.cfg.ShardOut }

// CloseInput signals that no more batches will be injected: it closes every
// shard's input, and the shards drain and close their outputs.
func (sp *ShardedPipeline) CloseInput() {
	for _, s := range sp.shards {
		s.CloseInput()
	}
}

// Wait blocks until every shard has drained and released everything,
// returning the first shard error, if any.
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

// Done returns a channel closed when every shard has drained and released
// everything — the telemetry server's liveness signal.
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

// E2E returns the live inject→release latency distribution, merged over
// the replicas' trackers — the same distribution Snapshot reports, and the
// cheap accessor the core adaptor probes for interference-aware batch
// sizing. Zero-valued when metrics are off.
func (sp *ShardedPipeline) E2E() stats.HistSnapshot {
	var h stats.HistSnapshot
	for _, s := range sp.shards {
		h = h.Merge(s.E2E())
	}
	return h
}

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

// Snapshot aggregates every shard's report into one Report with the same
// shape a single pipeline would produce (AggregateReports): per-element
// counters and histograms summed across replicas by node ID, per-edge
// traffic, boundary totals and e2e latency merged.
func (sp *ShardedPipeline) Snapshot() *Report {
	reps := make([]*Report, len(sp.shards))
	for i, s := range sp.shards {
		reps[i] = s.Snapshot()
	}
	return AggregateReports(reps)
}
