package dataplane

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// Config tunes the pipeline.
type Config struct {
	// QueueDepth is the channel capacity between elements (default 16).
	// When a stage's queue is full the upstream stage blocks —
	// back-pressure, not drops.
	QueueDepth int
	// PreserveOrder re-sequences batches at the sink in injection order
	// using a completion queue. It is off by default, which keeps the zero
	// value cheap.
	PreserveOrder bool
	// Metrics enables the per-element observability layer: packet/drop
	// counters, processing-time histograms, send-wait accounting, and
	// per-edge traffic counts, all readable live through Snapshot. Counters
	// and the inject→release latency histogram are exact; processing time
	// and send-wait are clocked on the batches flight.Observed selects and
	// read as estimates. Off by default; the overhead when on is the
	// counters plus two timestamps per batch at the boundary (see
	// BenchmarkPipelineMetricsOverhead).
	Metrics bool
	// Assignment places elements on compute backends at construction (nil
	// = every element on the host CPU). ModeGPU/ModeSplit elements execute
	// through the emulated GPU device backend — asynchronous per-device
	// submission queues with kernel-launch aggregation and modeled
	// transfer/launch latencies (see Offload). Swap at runtime with
	// Pipeline.Apply.
	Assignment hetsim.Assignment
	// Offload names the platform the emulated GPU device backend charges
	// (nil = hetsim.DefaultPlatform).
	Offload *OffloadConfig
	// DisableCompile turns off compiled CPU stage-loops (see compile.go):
	// every ModeCPU element keeps its own goroutine+channel hop per batch,
	// the pre-compile behaviour. The compile differential tests use it as
	// their interpreted reference and the repo benchmark prices a plain
	// hop with it; no command sets it.
	DisableCompile bool
	// Tenants labels graph nodes with the chain (tenant) they belong to on
	// a shared multi-tenant dataplane; nodes absent from the map are
	// shared infrastructure (source, demux, de-duplicated prefix, sink).
	// The labels flow into ElementStats.Tenant and the Prometheus
	// exposition's tenant label; they have no execution-path effect.
	Tenants map[element.NodeID]string
	// Flight, when non-nil, threads the pipeline flight recorder through
	// the dataplane: the collector records ordered-release spans, every
	// element lane records processing spans and busy ns (with Metrics on,
	// for the same observed batches the processing-time histogram times),
	// and the shard inbox registers a depth probe. Every lane counts every
	// batch. The per-batch cost when nil is a pointer check per site.
	Flight *flight.Recorder
	// PinOSThread wires each element goroutine (and so each compiled
	// stage-loop) to a dedicated OS thread via runtime.LockOSThread — the
	// NUMA-style worker pinning a DPDK dataplane gets from lcore affinity.
	// The Go runtime cannot choose the physical core, but pinning stops
	// the scheduler from migrating a shard's hot loop between threads
	// mid-run, which keeps its packet buffers and flow state cache-warm.
	// Meaningful for long-lived deployments (ingress soak, -serve); leave
	// off for short test drains where thread churn costs more than it
	// saves.
	PinOSThread bool
}

// Stats counts pipeline activity with atomics (safe to read live).
type Stats struct {
	InBatches   atomic.Uint64
	OutBatches  atomic.Uint64
	InPackets   atomic.Uint64
	OutPackets  atomic.Uint64
	DropPackets atomic.Uint64
	// InBytes counts live wire bytes injected (for mean-packet-size and
	// Gbps derivation from snapshots).
	InBytes atomic.Uint64
}

// Pipeline is a running dataplane for one element graph.
type Pipeline struct {
	g     *element.Graph
	cfg   Config
	Stats Stats
	// Offload counts emulated-GPU backend activity and placement swaps.
	Offload OffloadStats

	// placements is the current epoch's placement table; Apply publishes a
	// new one. pool owns the emulated devices.
	placements atomic.Pointer[placementTable]
	pool       *devicePool

	// metrics is the per-element registry (nil when Config.Metrics is
	// off); edgeCtr maps each graph edge to its traffic counter and edgeOut
	// lists the same counters per node, aligned with Graph.Successors
	// (node → port → target), so the send loops index instead of hashing.
	metrics []nodeMetrics
	edgeCtr map[element.EdgeKey]*stats.Counter
	edgeOut [][][]*stats.Counter
	// lat records per-batch inject→release latency (nil when Config.Metrics
	// is off).
	lat *e2eTracker
	// replica marks a shard of a ShardedPipeline: InjectShard stamps lat
	// before the batch reaches the injector, so the injector does not, and
	// the sharded pipeline closes out once every replica has drained.
	replica bool
	// flight wiring (all nil when Config.Flight is nil): flRelease is the
	// collector's release-stage lane, flElems holds one lane per element
	// ("nf:<name>"); their lane index is 0 standalone, the shard index when
	// built by NewSharded.
	flight    *flight.Recorder
	flRelease *flight.LaneRecorder
	flElems   []*flight.LaneRecorder
	// inbox holds each element's input channel; Snapshot samples queue
	// depths from it.
	inbox []chan stageMsg
	// start is the monotonic origin of ElapsedNs and the e2e stamps. It is
	// fixed at construction and never reset — not by Apply hot-swaps, not
	// by snapshots — so a batch injected under one placement epoch and
	// released under the next is measured on one base. NewSharded gives all
	// replicas of one deployment the same origin.
	start time.Time

	in      chan *netpkt.Batch
	out     chan *netpkt.Batch
	cancel  context.CancelFunc
	done    chan struct{}
	runErr  error
	errOnce sync.Once
}

// stageMsg carries a batch between stages. live is the batch's live packet
// count as counted by the sender, so each hop counts a batch once instead
// of every stage re-scanning it (meaningful only when metrics are on).
// fence, when non-nil, makes the message an epoch fence (compile.go)
// instead: it carries no batch.
type stageMsg struct {
	b     *netpkt.Batch
	live  int
	fence *fence
}

// New validates the graph and constructs a stopped pipeline.
func New(g *element.Graph, cfg Config) (*Pipeline, error) {
	return newPipeline(g, cfg, 0, time.Now(), nil)
}

// newPipeline builds a stopped pipeline whose flight lanes sit at index lane
// and whose clock starts at origin. out nil gives it its own output channel,
// closed when it drains; a non-nil out makes it a replica (see the replica
// field) releasing into out.
func newPipeline(g *element.Graph, cfg Config, lane int, origin time.Time, out chan *netpkt.Batch) (*Pipeline, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	n := g.Len()
	p := &Pipeline{
		g:       g,
		cfg:     cfg,
		inbox:   make([]chan stageMsg, n),
		start:   origin,
		in:      make(chan *netpkt.Batch, cfg.QueueDepth),
		out:     out,
		replica: out != nil,
		done:    make(chan struct{}),
	}
	if out == nil {
		p.out = make(chan *netpkt.Batch, cfg.QueueDepth)
	}
	for i := range p.inbox {
		p.inbox[i] = make(chan stageMsg, cfg.QueueDepth)
	}
	if cfg.Metrics {
		p.lat = newE2ETracker()
		p.metrics = make([]nodeMetrics, n)
		for i := range p.metrics {
			p.metrics[i].proc = stats.NewConcurrentHistogram(stats.DefaultLatencyBoundsNs())
		}
		p.edgeCtr = make(map[element.EdgeKey]*stats.Counter)
		p.edgeOut = make([][][]*stats.Counter, n)
		for i := range p.edgeOut {
			id := element.NodeID(i)
			succ := g.Successors(id)
			p.edgeOut[i] = make([][]*stats.Counter, len(succ))
			for port, targets := range succ {
				for _, to := range targets {
					k := element.EdgeKey{From: id, Port: port, To: to}
					if p.edgeCtr[k] == nil {
						p.edgeCtr[k] = new(stats.Counter)
					}
					p.edgeOut[i][port] = append(p.edgeOut[i][port], p.edgeCtr[k])
				}
			}
		}
	}
	if cfg.Flight != nil {
		p.initFlight(cfg.Flight, lane)
	}
	p.pool = newDevicePool(p, cfg.Offload)
	p.placements.Store(p.resolvePlacements(cfg.Assignment, 0))
	return p, nil
}

// initFlight attaches the flight recorder at the given lane index: one
// span lane per element, a release lane for the collector, and an inbox
// depth probe.
func (p *Pipeline) initFlight(rec *flight.Recorder, lane int) {
	p.flight = rec
	p.flRelease = rec.Lane(flight.StageRelease, lane)
	p.flElems = make([]*flight.LaneRecorder, p.g.Len())
	for i := range p.flElems {
		p.flElems[i] = rec.Lane("nf:"+p.g.Node(element.NodeID(i)).Name(), lane)
	}
	rec.AddQueue(flight.StageShard, lane, func() (int, int) {
		return len(p.in), cap(p.in)
	})
}

// clock returns monotonic time since the pipeline's clock origin (see the
// start field).
func (p *Pipeline) clock() time.Duration { return time.Since(p.start) }

// observes is the observation rule as the element paths ask it: whether
// batch id's processing is clocked — on every node, by whichever goroutine
// or device worker executes it. Never without Metrics: the processing time
// has nowhere else to go.
func (p *Pipeline) observes(id uint64) bool {
	return p.metrics != nil && flight.Observed(id)
}

// now is the one clock read of an observed batch's timing sites: on the
// flight recorder's origin when one is attached, so a processing interval
// is its span without a second read, else on the pipeline's.
func (p *Pipeline) now() int64 {
	if p.flight != nil {
		return p.flight.Now()
	}
	return p.clock().Nanoseconds()
}

// Start launches one goroutine per element plus the sink collector. The
// pipeline runs until Close (or ctx cancellation) and the input channel is
// drained.
func (p *Pipeline) Start(ctx context.Context) {
	ctx, p.cancel = context.WithCancel(ctx)

	n := p.g.Len()
	inbox := p.inbox
	// Writer counts per node, so each inbox closes when all its
	// upstreams finish.
	writers := make([]atomic.Int32, n)
	for _, e := range p.g.Edges() {
		writers[e.To].Add(1)
	}
	sources := p.g.Sources()
	for _, s := range sources {
		writers[s].Add(1) // the injector writes to sources
	}

	var wg sync.WaitGroup
	sinkOut := make(chan *netpkt.Batch, p.cfg.QueueDepth)
	var sinkWriters atomic.Int32

	for i := 0; i < n; i++ {
		id := element.NodeID(i)
		el := p.g.Node(id)
		succ := p.g.Successors(id)
		isSink := el.NumOutputs() == 0
		if isSink {
			sinkWriters.Add(1)
		}

		var m *nodeMetrics
		var edgeCtr [][]*stats.Counter
		if p.metrics != nil {
			m, edgeCtr = &p.metrics[i], p.edgeOut[i]
		}

		// Metrics are accounted inline: the sender's live count rides in
		// on the stageMsg and each output batch is scanned exactly once, so
		// a batch costs one scan per hop. The scheduling
		// loop itself lives in nodeRunner (scheduler.go), which routes
		// each batch to the host backend or the element's offload lane
		// according to the current placement epoch.
		nr := &nodeRunner{
			p: p, id: id, el: el, kind: el.Traits().Kind,
			isSink: isSink, inbox: inbox[i], sinkOut: sinkOut, succ: succ,
			host: element.NewHostBackend(),
			m:    m, edgeCtr: edgeCtr,
		}
		wg.Add(1)
		go func(nr *nodeRunner, succ [][]element.NodeID, isSink bool) {
			defer wg.Done()
			if p.cfg.PinOSThread {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			defer func() {
				// Decrement writer counts downstream; close inboxes
				// that have no writers left.
				for _, targets := range succ {
					for _, to := range targets {
						if writers[to].Add(-1) == 0 {
							close(inbox[to])
						}
					}
				}
				if isSink {
					if sinkWriters.Add(-1) == 0 {
						close(sinkOut)
					}
				}
			}()
			nr.run(ctx)
		}(nr, succ, isSink)
	}

	// Device workers run for the pipeline's lifetime; a janitor retires
	// them once every submitting goroutine (elements + injector) is done.
	p.pool.start()
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		wg.Wait()
		p.pool.stop()
	}()

	// Injector: p.in -> all source inboxes. It books In and, unless
	// InjectShard already did, stamps the e2e inject time.
	stamp := p.lat != nil && !p.replica
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			for _, s := range sources {
				if writers[s].Add(-1) == 0 {
					close(inbox[s])
				}
			}
		}()
		for b := range p.in {
			live, bytes := b.LiveBytes()
			p.Stats.InBatches.Add(1)
			p.Stats.InPackets.Add(uint64(live))
			p.Stats.InBytes.Add(uint64(bytes))
			if stamp {
				p.lat.record(b.ID, p.clock().Nanoseconds())
			}
			for _, s := range sources {
				select {
				case inbox[s] <- stageMsg{b: b, live: live}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Collector: sinkOut -> p.out, optionally re-ordered. It books Out and
	// records the e2e sample.
	go func() {
		defer close(p.done)
		if !p.replica {
			defer close(p.out)
		}
		var cq *netpkt.CompletionQueue
		if p.cfg.PreserveOrder {
			cq = netpkt.NewCompletionQueue(0)
		}
		emit := func(b *netpkt.Batch) bool {
			p.Stats.OutBatches.Add(1)
			live := uint64(b.Live())
			p.Stats.OutPackets.Add(live)
			p.Stats.DropPackets.Add(uint64(b.Len()) - live)
			if p.lat != nil {
				p.lat.observe(b.ID, p.clock().Nanoseconds())
			}
			if p.flRelease.Observe(b.ID) {
				now := p.flRelease.Now()
				p.flRelease.Span(b.ID, int(live), now, now)
			}
			select {
			case p.out <- b:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for b := range sinkOut {
			if cq == nil {
				if !emit(b) {
					return
				}
				continue
			}
			cq.Submit(b, 1)
			cq.Complete(b.ID)
			for {
				ready := cq.Pop()
				if ready == nil {
					break
				}
				if !emit(ready) {
					return
				}
			}
		}
		// A drained pipeline includes its device workers: they signal an
		// item complete before booking its group's Offload counters, so
		// without this a reader woken by Wait could miss the last group.
		<-workersDone
	}()
}

// sendTimed pushes v — batch id to the next element or the collector, or a
// fence (m nil) — into ch, accounting send-wait time when metrics are on.
// Returns false when the context was cancelled. The non-blocking first
// attempt keeps the uncontended path free of clock reads, and a send that
// does wait is clocked for observed batches only — the same batches whose
// processing time it is set against.
func sendTimed[T any](ctx context.Context, m *nodeMetrics, ch chan<- T, v T, id uint64) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	timed := m != nil && flight.Observed(id)
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	select {
	case ch <- v:
		if timed {
			m.sendWaitNs.Add(uint64(time.Since(t0).Nanoseconds()))
		}
		return true
	case <-ctx.Done():
		return false
	}
}

// fail records the first pipeline error and cancels the run.
func (p *Pipeline) fail(err error) {
	p.errOnce.Do(func() {
		p.runErr = err
		p.cancel()
	})
}

// In returns the injection channel. Close it (via CloseInput) to drain.
func (p *Pipeline) In() chan<- *netpkt.Batch { return p.in }

// Out returns the channel of completed batches.
func (p *Pipeline) Out() <-chan *netpkt.Batch { return p.out }

// CloseInput signals that no more batches will be injected; the pipeline
// drains and closes Out.
func (p *Pipeline) CloseInput() { close(p.in) }

// Wait blocks until the pipeline has fully drained and returns the first
// error, if any.
func (p *Pipeline) Wait() error {
	<-p.done
	return p.runErr
}

// Done returns a channel closed when the pipeline has fully drained (or
// failed) — the non-blocking liveness signal the telemetry server's
// /healthz endpoint watches.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Epoch returns the current placement epoch (0 until the first Apply).
func (p *Pipeline) Epoch() uint64 { return p.placements.Load().epoch }

// RunBatches is the convenience one-shot: start, inject everything, drain,
// and return the collected output batches in completion order plus the
// pipeline itself (for Stats and, with Config.Metrics, Snapshot).
func RunBatches(ctx context.Context, g *element.Graph, cfg Config,
	batches []*netpkt.Batch) ([]*netpkt.Batch, *Pipeline, error) {
	p, err := New(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	p.Start(ctx)

	var outs []*netpkt.Batch
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for b := range p.Out() {
			outs = append(outs, b)
		}
	}()

inject:
	for _, b := range batches {
		select {
		case p.In() <- b:
		case <-p.done:
			// The pipeline failed and tore itself down mid-injection; stop
			// feeding it and surface runErr below instead of blocking on a
			// channel nobody reads anymore.
			break inject
		case <-ctx.Done():
			p.CloseInput()
			<-collectDone
			return outs, p, ctx.Err()
		}
	}
	p.CloseInput()
	<-collectDone
	if err := p.Wait(); err != nil {
		return outs, p, err
	}
	return outs, p, nil
}
