package dataplane

// Placement differential harness: random element graphs under random
// CPU/GPU/Split assignments must be functionally indistinguishable from the
// plain sequential executor — the emulated GPU device backend changes
// *where* and *when* elements run (async submission queues, launch
// aggregation, completion-queue joins) but never *what* they compute.
// Plus the hot-swap audit: applying a new assignment mid-traffic loses
// zero packets and never executes an element under two placements within
// one batch epoch.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
)

// randAssignment draws a random placement for every node: 1/3 CPU
// (omitted), 1/3 full GPU, 1/3 split with a fraction in (0.1, 0.9).
// Endpoints get assignments too — the placement resolver must pin them
// back to the CPU.
func randAssignment(g *element.Graph, seed int64) hetsim.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := make(hetsim.Assignment)
	for i := 0; i < g.Len(); i++ {
		switch rng.Intn(3) {
		case 1:
			a[element.NodeID(i)] = hetsim.Placement{Mode: hetsim.ModeGPU}
		case 2:
			a[element.NodeID(i)] = hetsim.Placement{
				Mode: hetsim.ModeSplit, GPUFraction: 0.1 + 0.8*rng.Float64(),
			}
		}
	}
	return a
}

// TestPlacementDifferentialMultiset: for random graphs and random
// assignments, the placement-aware pipeline must emit exactly the
// sequential executor's multiset of per-packet outcomes.
func TestPlacementDifferentialMultiset(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
		"fanout":  buildFanoutRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 71
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 24, 16))
				conOut, _, err := RunBatches(context.Background(), build(seed),
					Config{
						QueueDepth: 1 + int(trial%3),
						Assignment: randAssignment(build(seed), seed),
						Offload: &OffloadConfig{
							Platform:       gpus(1 + int(trial%2)),
							maxOutstanding: 1 + int(trial%4),
							aggregateLimit: 1 + int(trial%5),
						},
					}, diffTraffic(seed, 24, 16))
				if err != nil {
					t.Fatal(err)
				}
				want, got := multiset(flatten(seqOut)), multiset(conOut)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: seq=%d placed=%d", len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: seq=%d placed=%d", k, n, got[k])
					}
				}
			})
		}
	}
}

// TestPlacementDifferentialExactOrder: with PreserveOrder on, random
// assignments must not disturb batch order or bytes — the offload lanes'
// completion queues restore submission order per element, so the pipeline
// remains byte-for-byte identical to the sequential run.
func TestPlacementDifferentialExactOrder(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 83
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 30, 8))
				conOut, _, err := RunBatches(context.Background(), build(seed),
					Config{
						PreserveOrder: true, Metrics: true, QueueDepth: 2,
						Assignment: randAssignment(build(seed), seed),
						Offload:    &OffloadConfig{maxOutstanding: 1 + int(trial%4)},
					}, diffTraffic(seed, 30, 8))
				if err != nil {
					t.Fatal(err)
				}
				if len(conOut) != 30 {
					t.Fatalf("placed pipeline emitted %d batches", len(conOut))
				}
				for i, cb := range conOut {
					if cb.ID != uint64(i) {
						t.Fatalf("batch %d surfaced at position %d", cb.ID, i)
					}
					sbs := seqOut[cb.ID]
					if len(sbs) != 1 {
						t.Fatalf("sequential emitted %d batches for id %d", len(sbs), cb.ID)
					}
					sb := sbs[0]
					if len(cb.Packets) != len(sb.Packets) {
						t.Fatalf("batch %d: packet count %d vs %d", cb.ID, len(cb.Packets), len(sb.Packets))
					}
					for j := range cb.Packets {
						cp, sp := cb.Packets[j], sb.Packets[j]
						if cp.Dropped != sp.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v", cb.ID, j, cp.Dropped, sp.Dropped)
						}
						if !cp.Dropped && !bytes.Equal(cp.Data, sp.Data) {
							t.Fatalf("batch %d pkt %d: payload differs", cb.ID, j)
						}
					}
				}
			})
		}
	}
}

// TestPlacementShardedPerFlowOrder: random assignments on a sharded
// pipeline must preserve per-flow packet order — the acceptance bar for
// placement-aware execution under sharding.
func TestPlacementShardedPerFlowOrder(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			build := func(int) (*element.Graph, error) {
				g := element.NewGraph()
				src := g.Add(element.NewFromDevice("src"))
				chk := g.Add(element.NewCheckIPHeader("chk"))
				ttl := g.Add(element.NewDecTTL("ttl"))
				cnt := g.Add(element.NewCounter("cnt"))
				dst := g.Add(element.NewToDevice("dst"))
				g.MustConnect(src, 0, chk)
				g.MustConnect(chk, 0, ttl)
				g.MustConnect(ttl, 0, cnt)
				g.MustConnect(cnt, 0, dst)
				return g, nil
			}
			ref, _ := build(0)
			const flows = 13
			outs, _ := runSharded(t, build,
				ShardedConfig{
					Shards: 3,
					Config: Config{
						QueueDepth: 2,
						Assignment: randAssignment(ref, 1000+trial),
						Offload:    &OffloadConfig{maxOutstanding: 1 + int(trial%4)},
					},
				}, seqTraffic(flows, 40, 16))
			if seen := checkFlowOrder(t, outs); seen != 40*16 {
				t.Fatalf("saw %d packets, want %d", seen, 40*16)
			}
		})
	}
}

// hotSwapChain is the fixed linear graph the hot-swap audits run on: every
// batch enters every element exactly once, so a repeated visit directly
// indicates double execution.
func hotSwapChain() *element.Graph {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	chk := g.Add(element.NewCheckIPHeader("chk"))
	ttl := g.Add(element.NewDecTTL("ttl"))
	cnt := g.Add(element.NewCounter("cnt"))
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, ttl)
	g.MustConnect(ttl, 0, cnt)
	g.MustConnect(cnt, 0, dst)
	return g
}

// hotSwapAssignments are the placements cycled through mid-traffic.
func hotSwapAssignments() []hetsim.Assignment {
	return []hetsim.Assignment{
		{ // everything offloadable on the GPU
			1: {Mode: hetsim.ModeGPU},
			2: {Mode: hetsim.ModeGPU},
			3: {Mode: hetsim.ModeGPU},
		},
		{ // mixed split/CPU
			1: {Mode: hetsim.ModeSplit, GPUFraction: 0.5},
			3: {Mode: hetsim.ModeSplit, GPUFraction: 0.25},
		},
		nil, // back to CPU-only
	}
}

// orderProbe is a one-output element standing in for a stateful NF: it
// records being entered concurrently or out of batch order — what would
// silently corrupt real NF state. The sleep keeps it the chain's bottleneck,
// so every swap lands with stragglers queued in front of it.
type orderProbe struct {
	busy atomic.Bool
	next atomic.Uint64
	bad  atomic.Pointer[string]
}

func (e *orderProbe) Name() string           { return "probe" }
func (e *orderProbe) Traits() element.Traits { return element.Traits{Kind: "OrderProbe"} }
func (e *orderProbe) NumOutputs() int        { return 1 }
func (e *orderProbe) Signature() string      { return "OrderProbe" }
func (e *orderProbe) Process(b *netpkt.Batch) []*netpkt.Batch {
	if !e.busy.CompareAndSwap(false, true) {
		msg := fmt.Sprintf("probe entered concurrently at batch %d", b.ID)
		e.bad.CompareAndSwap(nil, &msg)
	}
	if want := e.next.Swap(b.ID + 1); b.ID != want {
		msg := fmt.Sprintf("probe saw batch %d, expected %d", b.ID, want)
		e.bad.CompareAndSwap(nil, &msg)
	}
	time.Sleep(100 * time.Microsecond)
	e.busy.Store(false)
	return []*netpkt.Batch{b}
}

// visit is one Process call a visitLog saw: the element, the batch and the
// live packets it was handed.
type visit struct {
	node  element.NodeID
	batch uint64
	live  int
}

// visitLog collects the visits of every element recordVisits wrapped, in
// call order; bad keeps the first element it saw entered concurrently.
type visitLog struct {
	mu     sync.Mutex
	visits []visit
	bad    atomic.Pointer[string]
}

// visitRecorder wraps one graph element and logs each call before handing
// the batch on (the element may recycle the header it is given). Like
// orderProbe it reports being entered concurrently — one element running on
// two goroutines at once, what executing under two placements would do.
type visitRecorder struct {
	element.Element
	node element.NodeID
	log  *visitLog
	busy atomic.Bool
}

func (r *visitRecorder) enter(b *netpkt.Batch) {
	if !r.busy.CompareAndSwap(false, true) {
		msg := fmt.Sprintf("element %d entered concurrently at batch %d", r.node, b.ID)
		r.log.bad.CompareAndSwap(nil, &msg)
	}
	r.log.mu.Lock()
	r.log.visits = append(r.log.visits, visit{node: r.node, batch: b.ID, live: b.Live()})
	r.log.mu.Unlock()
}

func (r *visitRecorder) Process(b *netpkt.Batch) []*netpkt.Batch {
	r.enter(b)
	defer r.busy.Store(false)
	return r.Element.Process(b)
}

// singleVisitRecorder keeps a SingleOut element on the backends' fast path.
type singleVisitRecorder struct{ *visitRecorder }

func (r singleVisitRecorder) ProcessSingle(b *netpkt.Batch) *netpkt.Batch {
	r.enter(b)
	defer r.busy.Store(false)
	return r.Element.(element.SingleOut).ProcessSingle(b)
}

// recordVisits returns g with every node wrapped in a visitRecorder — same
// node IDs, edges, names, traits and signatures — and the log they share.
func recordVisits(g *element.Graph) (*element.Graph, *visitLog) {
	log := &visitLog{}
	w := element.NewGraph()
	for i := 0; i < g.Len(); i++ {
		el := g.Node(element.NodeID(i))
		r := &visitRecorder{Element: el, node: element.NodeID(i), log: log}
		if _, ok := el.(element.SingleOut); ok {
			w.Add(singleVisitRecorder{r})
		} else {
			w.Add(r)
		}
	}
	for _, e := range g.Edges() {
		w.MustConnect(e.From, e.Port, e.To)
	}
	return w, log
}

// snapshot returns the visits so far and the first concurrency violation.
func (l *visitLog) snapshot() ([]visit, *string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]visit(nil), l.visits...), l.bad.Load()
}

// hotSwapProbeChain is hotSwapChain with the last interior element replaced
// by an orderProbe.
func hotSwapProbeChain() (*element.Graph, *orderProbe) {
	probe := &orderProbe{}
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	chk := g.Add(element.NewCheckIPHeader("chk"))
	ttl := g.Add(element.NewDecTTL("ttl"))
	prb := g.Add(probe)
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, ttl)
	g.MustConnect(ttl, 0, prb)
	g.MustConnect(prb, 0, dst)
	return g, probe
}

// auditHotSwap is the one hot-swap harness: it pushes batches of 16 packets
// through g (every element wrapped by recordVisits) under PreserveOrder +
// Metrics, applying the next assignment of swaps (cyclically) every `every`
// batches, and asserts zero loss, batches surfacing in injection order, and
// — from the visit log — that every element ran every batch exactly once,
// in ascending batch order, never on two goroutines at once. Every table
// it publishes is checked to give each segment one placement. It returns
// the drained pipeline for the caller's own counters.
func auditHotSwap(t *testing.T, g *element.Graph, queueDepth int, oc OffloadConfig,
	swaps []hetsim.Assignment, batches, every int) *Pipeline {
	t.Helper()
	const perBatch = 16
	g, log := recordVisits(g)
	p, err := New(g, Config{
		QueueDepth: queueDepth, PreserveOrder: true, Metrics: true,
		Offload: &oc,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSegmentPlacements(t, p.placements.Load())
	p.Start(context.Background())

	var outs []*netpkt.Batch
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range p.Out() {
			outs = append(outs, b)
		}
	}()
	for i, b := range seqTraffic(7, batches, perBatch) {
		if i > 0 && i%every == 0 {
			if err := p.Apply(swaps[(i/every-1)%len(swaps)]); err != nil {
				t.Fatal(err)
			}
			checkSegmentPlacements(t, p.placements.Load())
		}
		p.In() <- b
	}
	p.CloseInput()
	<-collected
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	if got := p.Stats.OutPackets.Load(); got != uint64(batches*perBatch) {
		t.Fatalf("out packets = %d, want %d (packets lost across hot-swap)", got, batches*perBatch)
	}
	if p.Stats.DropPackets.Load() != 0 {
		t.Fatalf("drops = %d across hot-swap", p.Stats.DropPackets.Load())
	}
	if len(outs) != batches {
		t.Fatalf("out batches = %d, want %d", len(outs), batches)
	}
	for i, b := range outs {
		if b.ID != uint64(i) {
			t.Fatalf("batch %d surfaced at position %d", b.ID, i)
		}
	}

	visits, bad := log.snapshot()
	if bad != nil {
		t.Fatal(*bad)
	}
	nextBatch := make([]uint64, g.Len())
	for _, v := range visits {
		if v.batch != nextBatch[v.node] {
			t.Fatalf("element %d ran batch %d, expected %d (repeated or out of order)",
				v.node, v.batch, nextBatch[v.node])
		}
		nextBatch[v.node] = v.batch + 1
	}
	if len(visits) != batches*g.Len() {
		t.Fatalf("elements ran %d batches in all, want %d", len(visits), batches*g.Len())
	}
	return p
}

// checkSegmentPlacements asserts that a placement table gives every member
// of a segment the placement and segment identity of its head: a batch a
// head executes or submits for its chain runs every member under one
// placement.
func checkSegmentPlacements(t *testing.T, tbl *placementTable) {
	t.Helper()
	for si, plan := range tbl.segs {
		head := tbl.nodes[plan.nodes[0]]
		for _, id := range plan.nodes {
			pl := tbl.nodes[id]
			if pl.seg != si || pl.String() != head.String() {
				t.Fatalf("epoch %d: element %d is %s in segment %d, its head %s in segment %d",
					tbl.epoch, id, pl, pl.seg, head, si)
			}
		}
	}
}

// TestHotSwapZeroLoss: applying new assignments mid-traffic loses zero
// packets, keeps batch order, and — audited through every element's visits
// — never executes an element twice, out of order or on two goroutines.
func TestHotSwapZeroLoss(t *testing.T) {
	p := auditHotSwap(t, hotSwapChain(), 2, OffloadConfig{maxOutstanding: 2, aggregateLimit: 3},
		hotSwapAssignments(), 80, 20)
	if got := p.Offload.Swaps.Load(); got != 3 {
		t.Fatalf("Swaps = %d, want 3", got)
	}
	if got := p.snapshotOffload().Epoch; got != 3 {
		t.Fatalf("final epoch = %d, want 3", got)
	}
}

// TestHotSwapShardedZeroLoss: the sharded pipeline's Apply swaps every
// replica without losing packets or violating per-flow order.
func TestHotSwapShardedZeroLoss(t *testing.T) {
	const flows, batches, perBatch = 11, 60, 16
	build := func(int) (*element.Graph, error) { return hotSwapChain(), nil }
	sp, err := NewSharded(build, ShardedConfig{
		Shards: 3,
		Config: Config{
			QueueDepth: 2, Metrics: true,
			Offload: &OffloadConfig{maxOutstanding: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)

	var outs []*netpkt.Batch
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range sp.Out() {
			outs = append(outs, b)
		}
	}()

	swaps := hotSwapAssignments()
	for i, b := range seqTraffic(flows, batches, perBatch) {
		if i > 0 && i%15 == 0 {
			if err := sp.Apply(swaps[(i/15-1)%len(swaps)]); err != nil {
				t.Fatal(err)
			}
		}
		injectByFlow(ctx, sp, b)
	}
	sp.CloseInput()
	<-collected
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}

	if got := sp.Snapshot().OutPackets; got != batches*perBatch {
		t.Fatalf("out packets = %d, want %d (packets lost across sharded hot-swap)",
			got, batches*perBatch)
	}
	checkFlowOrder(t, outs)
	// Every replica swapped three times; the aggregated report sums them
	// and takes the max epoch.
	rep := sp.Snapshot()
	if rep.Offload.Swaps != 3*3 {
		t.Fatalf("aggregated Swaps = %d, want 9", rep.Offload.Swaps)
	}
	if rep.Offload.Epoch != 3 {
		t.Fatalf("aggregated epoch = %d, want 3", rep.Offload.Epoch)
	}
}

// gpus returns a copy of the default platform with n GPUs, which is how a
// test sets the device pool's size.
func gpus(n int) *hetsim.Platform {
	p := hetsim.DefaultPlatform()
	p.GPUs = n
	return &p
}

// TestOffloadDefaults pins the device pool's fixed shape: a pipeline built
// with Offload nil runs DefaultPlatform().GPUs devices, a lane window of 4,
// launch groups of up to 8 and segment fusion. A platform with n GPUs gets
// n devices, and at least one.
func TestOffloadDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		oc   *OffloadConfig
		devs int
	}{
		{"nil", nil, hetsim.DefaultPlatform().GPUs},
		{"1gpu", &OffloadConfig{Platform: gpus(1)}, 1},
		{"3gpus", &OffloadConfig{Platform: gpus(3)}, 3},
		{"0gpus", &OffloadConfig{Platform: gpus(0)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(hotSwapChain(), Config{Offload: tc.oc})
			if err != nil {
				t.Fatal(err)
			}
			dp := p.pool
			if len(dp.devs) != tc.devs || p.Snapshot().Offload.Devices != tc.devs {
				t.Errorf("devices = %d (snapshot %d), want %d", len(dp.devs), p.Snapshot().Offload.Devices, tc.devs)
			}
			if dp.maxOutstanding != 4 || dp.aggLimit != 8 || !dp.fuse {
				t.Errorf("lane window %d, aggregation limit %d, fusion %v; want 4, 8, true",
					dp.maxOutstanding, dp.aggLimit, dp.fuse)
			}
		})
	}
}

// TestOffloadStatsAccounting pins the device backend's bookkeeping on a
// fully offloaded chain: every non-endpoint element's batches go through a
// device, launches aggregate (strictly fewer launches than submissions),
// transfer bytes flow both ways, and the snapshot exposes placements.
func TestOffloadStatsAccounting(t *testing.T) {
	const batches, perBatch = 40, 16
	g := hotSwapChain()
	a := hetsim.Assignment{
		1: {Mode: hetsim.ModeGPU},
		2: {Mode: hetsim.ModeSplit, GPUFraction: 0.5},
		3: {Mode: hetsim.ModeGPU},
		// Endpoints assigned too: the resolver must pin them to the CPU.
		0: {Mode: hetsim.ModeGPU},
		4: {Mode: hetsim.ModeGPU},
	}
	outs, p, err := RunBatches(context.Background(), g,
		Config{
			PreserveOrder: true, Metrics: true,
			Assignment: a,
			Offload:    &OffloadConfig{maxOutstanding: 4, aggregateLimit: 8},
		}, seqTraffic(5, batches, perBatch))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != batches {
		t.Fatalf("emitted %d batches, want %d", len(outs), batches)
	}
	rep := p.Snapshot()
	o := rep.Offload
	if o.OffloadedBatches != 3*batches {
		t.Fatalf("OffloadedBatches = %d, want %d", o.OffloadedBatches, 3*batches)
	}
	if o.SplitBatches != batches {
		t.Fatalf("SplitBatches = %d, want %d", o.SplitBatches, batches)
	}
	if o.KernelLaunches == 0 || o.KernelLaunches >= o.OffloadedBatches {
		t.Fatalf("KernelLaunches = %d: want aggregation (0 < launches < %d submissions)",
			o.KernelLaunches, o.OffloadedBatches)
	}
	if o.H2DBytes == 0 || o.H2DBytes != o.D2HBytes {
		t.Fatalf("transfer bytes h2d=%d d2h=%d: want equal and non-zero", o.H2DBytes, o.D2HBytes)
	}
	if o.GPUBusyNs == 0 || o.SplitCPUNs == 0 {
		t.Fatalf("modeled occupancy gpu=%dns split-cpu=%dns: want non-zero", o.GPUBusyNs, o.SplitCPUNs)
	}
	if o.Devices != 2 {
		t.Fatalf("Devices = %d, want 2", o.Devices)
	}
	// GPU nodes pin per segment (segment index modulo devices): node 1 is
	// segment 0 -> gpu0, node 3 segment 1 -> gpu1; the split keeps the
	// node-index pinning (2 % 2 devices -> device 0).
	wantPlace := []string{"cpu", "gpu0", "split0:0.50", "gpu1", "cpu"}
	for i, e := range rep.Elements {
		if e.Placement != wantPlace[i] {
			t.Fatalf("element %d placement %q, want %q", i, e.Placement, wantPlace[i])
		}
	}
}
