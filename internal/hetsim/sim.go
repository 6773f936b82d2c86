package hetsim

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// MemProber is implemented by elements that count their table accesses
// exactly (Aho–Corasick deep states, ACL tree probes, LPM probes). The
// simulator charges these real counts instead of the cost table's
// per-packet estimates, which is how traffic content (full-match vs
// no-match payloads, large ACLs) moves the simulated clock.
type MemProber interface {
	MemAccesses() uint64
}

// Footprinter is implemented by elements that know their real table
// working-set size (ACL decision trees, AC/regex DFA tables, tries). The
// cache-contention model prefers it over the cost table's static estimate,
// which is how growing rule sets (Fig. 17's ACL 200→10000) raise CPU
// pressure in the simulation.
type Footprinter interface {
	FootprintBytes() float64
}

// Merger is implemented by elements that buffer fan-in branches and emit
// only when all expected copies of a batch have arrived (the XOR merge of
// parallelized SFCs). The simulator synchronizes batch ready times across
// the expected inputs.
type Merger interface {
	ExpectedInputs() int
}

// Mode places an element on a processor.
type Mode int

// Placement modes.
const (
	// ModeCPU runs the element entirely on CPU cores.
	ModeCPU Mode = iota
	// ModeGPU offloads every packet to a GPU device.
	ModeGPU
	// ModeSplit offloads GPUFraction of each batch and processes the
	// rest on CPU, joining at a completion queue.
	ModeSplit
)

// Placement is one element's processor assignment.
type Placement struct {
	Mode        Mode
	GPUFraction float64 // used by ModeSplit
}

// Assignment maps graph nodes to placements; missing nodes default to CPU.
type Assignment map[element.NodeID]Placement

// AllGPU places every offloadable element on the GPU.
func AllGPU(g *element.Graph) Assignment {
	a := make(Assignment)
	for i := 0; i < g.Len(); i++ {
		if g.Node(element.NodeID(i)).Traits().Offloadable {
			a[element.NodeID(i)] = Placement{Mode: ModeGPU}
		}
	}
	return a
}

// KindSplit offloads the given fraction of the elements whose kind is in
// kinds, leaving everything else on the CPU. This models the usual
// operator practice of offloading only an NF's heavy element (the sweep of
// Fig. 6 varies the offload ratio of the NF's compute kernel, not of its
// header checks).
func KindSplit(g *element.Graph, frac float64, kinds ...string) Assignment {
	want := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	a := make(Assignment)
	for i := 0; i < g.Len(); i++ {
		id := element.NodeID(i)
		tr := g.Node(id).Traits()
		if !tr.Offloadable || !want[tr.Kind] {
			continue
		}
		switch {
		case frac <= 0:
			a[id] = Placement{Mode: ModeCPU}
		case frac >= 1:
			a[id] = Placement{Mode: ModeGPU}
		default:
			a[id] = Placement{Mode: ModeSplit, GPUFraction: frac}
		}
	}
	return a
}

// HeavyKinds are the compute-kernel element kinds an operator would
// realistically offload wholesale; glue elements (header checks, counters,
// encaps) stay on the CPU even in "GPU-only" deployments, as in the GPU
// frameworks the paper compares against.
var HeavyKinds = []string{
	"IPsecSeal", "AhoCorasick", "RegexDFA", "IPLookup", "V6Lookup",
	"ACL", "NATRewrite", "LBHash", "WANCompress", "PayloadRewrite",
}

// GPUHeavy offloads every heavy element of g wholly to the GPU.
func GPUHeavy(g *element.Graph) Assignment {
	return KindSplit(g, 1.0, HeavyKinds...)
}

// UniformSplit offloads the given fraction of every offloadable element.
func UniformSplit(g *element.Graph, frac float64) Assignment {
	a := make(Assignment)
	for i := 0; i < g.Len(); i++ {
		if g.Node(element.NodeID(i)).Traits().Offloadable {
			switch {
			case frac <= 0:
				a[element.NodeID(i)] = Placement{Mode: ModeCPU}
			case frac >= 1:
				a[element.NodeID(i)] = Placement{Mode: ModeGPU}
			default:
				a[element.NodeID(i)] = Placement{Mode: ModeSplit, GPUFraction: frac}
			}
		}
	}
	return a
}

// CoRun describes interference context from NFs co-resident on the same
// platform but outside the simulated graph (Fig. 8e experiments).
type CoRun struct {
	// ExtraCPUFootprint adds co-runner table bytes to cache pressure.
	ExtraCPUFootprint float64
	// ExtraGPUKinds counts co-resident GPU kernels (adds per-kernel
	// context-switch cost).
	ExtraGPUKinds int
	// CPUCoreShare in (0,1] scales available cores (co-runners own the
	// rest). Zero means 1.0.
	CPUCoreShare float64
}

// Result aggregates a simulation run.
type Result struct {
	// Throughput over the whole run (bytes and live packets at sinks).
	Throughput stats.Throughput
	// Latency samples one observation per sink-arriving batch.
	Latency stats.LatencySample
	// CPUBusyNs and GPUBusyNs accumulate resource busy time.
	CPUBusyNs, GPUBusyNs float64
	// KernelLaunches, H2DBytes, D2HBytes, SplitEvents count offload and
	// re-organization overheads.
	KernelLaunches uint64
	H2DBytes       uint64
	D2HBytes       uint64
	SplitEvents    uint64
	// Emitted counts live packets that reached sinks.
	Emitted uint64
	// DroppedByElement mirrors functional drop accounting.
	DroppedByElement map[string]uint64
}

// GPUMemAccessCycles is the effective per-table-access cost on the GPU
// (latency largely hidden by parallel warps, so far below the CPU's).
const GPUMemAccessCycles = 18

// Simulator runs an element graph functionally while charging calibrated
// time costs to simulated resources.
type Simulator struct {
	P      Platform
	Costs  map[string]ElemCost
	G      *element.Graph
	Assign Assignment
	CoRun  CoRun

	order      []element.NodeID
	contention map[string]float64 // per-kind CPU contention factor
	gpuKinds   int
	cm         *CostModel // shared pricing arithmetic (see costmodel.go)
	// segInterior marks ModeGPU nodes that are interior/tail members of a
	// fused device-resident segment (see DeviceSegments): they pay kernel
	// time only — the launch and context switch are charged once at the
	// segment head, matching the dataplane's fused submissions.
	segInterior []bool
}

// NewSimulator validates the graph and precomputes contention state.
func NewSimulator(p Platform, costs map[string]ElemCost, g *element.Graph, a Assignment) (*Simulator, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	if costs == nil {
		costs = DefaultCosts()
	}
	if a == nil {
		a = Assignment{}
	}
	s := &Simulator{P: p, Costs: costs, G: g, Assign: a, order: order}
	s.precompute()
	return s, nil
}

// SetCoRun installs interference context (must be called before Run).
func (s *Simulator) SetCoRun(c CoRun) {
	s.CoRun = c
	s.precompute()
}

// precompute derives cache-contention factors from the set of kinds
// resident on each processor.
func (s *Simulator) precompute() {
	cpuFootprint := s.CoRun.ExtraCPUFootprint + s.P.ProcessFootprint
	seenCPU := map[string]bool{}
	gpuKinds := map[string]bool{}
	for i := 0; i < s.G.Len(); i++ {
		id := element.NodeID(i)
		el := s.G.Node(id)
		kind := el.Traits().Kind
		pl := s.Assign[id]
		fp := costFor(s.Costs, kind).FootprintBytes
		if f, ok := el.(Footprinter); ok {
			fp = f.FootprintBytes()
		}
		switch pl.Mode {
		case ModeGPU:
			gpuKinds[kind] = true
		case ModeSplit:
			gpuKinds[kind] = true
			if !seenCPU[kind] {
				seenCPU[kind] = true
				cpuFootprint += fp
			}
		default:
			if !seenCPU[kind] {
				seenCPU[kind] = true
				cpuFootprint += fp
			}
		}
	}
	overshoot := 0.0
	if cpuFootprint > s.P.LLCBytes {
		overshoot = (cpuFootprint - s.P.LLCBytes) / s.P.LLCBytes
	}
	s.contention = make(map[string]float64)
	for kind := range seenCPU {
		c := costFor(s.Costs, kind)
		s.contention[kind] = 1 + s.P.ContentionSlope*overshoot*c.MemIntensity
	}
	s.gpuKinds = len(gpuKinds) + s.CoRun.ExtraGPUKinds
	s.segInterior = make([]bool, s.G.Len())
	for _, seg := range DeviceSegments(s.G, func(id element.NodeID) bool {
		return s.Assign[id].Mode == ModeGPU
	}) {
		for _, id := range seg.Nodes[1:] {
			s.segInterior[id] = true
		}
	}
	s.cm = &CostModel{
		P: s.P, Costs: s.Costs,
		Contention: s.contentionFor,
		GPUKinds:   s.gpuKinds,
	}
}

// contentionFor returns the CPU contention factor for kind.
func (s *Simulator) contentionFor(kind string) float64 {
	if f, ok := s.contention[kind]; ok {
		return f
	}
	return 1
}

// visit is what one (node, batch) step of the functional pass leaves for
// pricing: who produced the batch, what went in, what the element's exact
// probe counter moved by, and what came out.
type visit struct {
	node element.NodeID
	// from is the visit whose output this batch is, -1 for an injected
	// batch, which is ready at t0.
	from    int
	t0      float64
	batchID uint64
	// n and bytes are the live packets and bytes handed in; mem is the
	// MemProber delta around Process.
	n, bytes int
	mem      float64
	// outN and outBytes are the live packets and bytes a sink departs;
	// nonEmpty counts the output ports of any other element that carried
	// packets.
	outN, outBytes int
	nonEmpty       int
}

// Trace is one functional pass of a sample through a graph, recorded so
// that any number of placements can be priced from it. Nothing in it
// depends on an Assignment: elements compute the same bytes on either
// processor, so the placement only decides what each visit costs and where
// its batch then resides. A Trace belongs to the graph that produced it.
type Trace struct {
	g *element.Graph
	// visits are in execution order: stage-major, so one node's visits are
	// contiguous and every producer precedes its consumers.
	visits  []visit
	arrival map[uint64]float64 // batch ID -> injection time
	drops   map[string]uint64
	// nodes and edges count the live packets into each node and over each
	// edge (as the batch was emitted); pkts and bytes are what was injected.
	nodes       map[element.NodeID]uint64
	edges       map[element.EdgeKey]uint64
	pkts, bytes int
}

// Counts returns what element.Executor's RunStats count — live packets into
// each node and over each edge, packets and bytes injected. The maps are
// the trace's; callers only read them.
func (t *Trace) Counts() (nodes map[element.NodeID]uint64, edges map[element.EdgeKey]uint64, pkts, bytes int) {
	return t.nodes, t.edges, t.pkts, t.bytes
}

// Run pushes the batches through the graph, injecting batch i at
// i*interarrivalNs, and returns throughput/latency/overhead metrics.
// interarrivalNs <= 0 injects back-to-back (saturation measurement).
func (s *Simulator) Run(batches []*netpkt.Batch, interarrivalNs float64) (*Result, error) {
	t, err := s.Execute(batches, interarrivalNs)
	if err != nil {
		return nil, err
	}
	return s.Price(t), nil
}

// Execute is Run's functional half: it runs every element on every batch
// once, consuming the batches, and records what pricing reads. The trace
// can be priced by any simulator over the same graph, whatever its
// Assignment.
func (s *Simulator) Execute(batches []*netpkt.Batch, interarrivalNs float64) (*Trace, error) {
	t := &Trace{g: s.G, arrival: make(map[uint64]float64, len(batches)), drops: make(map[string]uint64),
		nodes: make(map[element.NodeID]uint64), edges: make(map[element.EdgeKey]uint64)}

	// Stage-major scheduling: inject every batch, then drain the graph one
	// element at a time in topological order — the way a real pipeline's
	// elements each consume a stream of batches. Same-stage tasks have
	// similar ready times, so the server pools stay packed (batch-major
	// ordering would leave unfillable gaps on the cores).
	type pendingBatch struct {
		b    *netpkt.Batch
		from int
		t0   float64
	}
	sources := s.G.Sources()
	pending := make(map[element.NodeID][]pendingBatch, s.G.Len())
	for bi, in := range batches {
		t0 := float64(bi) * math.Max(0, interarrivalNs)
		t.arrival[in.ID] = t0
		t.pkts += in.Len()
		t.bytes += in.Bytes()
		for _, src := range sources {
			pending[src] = append(pending[src], pendingBatch{b: in, from: -1, t0: t0})
		}
	}

	for _, id := range s.order {
		el := s.G.Node(id)
		succ := s.G.Successors(id)
		prober, probes := el.(MemProber)
		for _, ent := range pending[id] {
			v := visit{node: id, from: ent.from, t0: ent.t0, batchID: ent.b.ID}
			v.n, v.bytes = ent.b.LiveBytes()
			t.nodes[id] += uint64(v.n)

			// Snapshot exact memory probes around the functional call.
			var memBefore uint64
			if probes {
				memBefore = prober.MemAccesses()
			}
			outs := el.Process(ent.b)
			if probes {
				v.mem = float64(prober.MemAccesses() - memBefore)
			}
			countDrops(ent.b, t.drops)

			if el.NumOutputs() == 0 {
				v.outN, v.outBytes = ent.b.LiveBytes()
			} else {
				if len(outs) != el.NumOutputs() {
					return nil, fmt.Errorf("hetsim: %s emitted %d outputs, declared %d",
						el.Name(), len(outs), el.NumOutputs())
				}
				for port, ob := range outs {
					if ob == nil || len(ob.Packets) == 0 {
						continue
					}
					v.nonEmpty++
					live := uint64(ob.Live())
					for _, to := range succ[port] {
						t.edges[element.EdgeKey{From: id, Port: port, To: to}] += live
						pending[to] = append(pending[to], pendingBatch{b: ob, from: len(t.visits)})
					}
				}
			}
			t.visits = append(t.visits, v)
		}
	}
	return t, nil
}

// Price is Run's other half: it replays the trace under this simulator's
// Assignment — server pools, merge synchronization, fused-segment
// interiors, splits, transfers — without touching a packet.
func (s *Simulator) Price(t *Trace) *Result {
	if t.g != s.G {
		panic("hetsim: Price of a trace recorded on another graph")
	}
	res := &Result{DroppedByElement: maps.Clone(t.drops)}
	nCores := s.P.CPUCores
	if s.CoRun.CPUCoreShare > 0 && s.CoRun.CPUCoreShare <= 1 {
		nCores = int(math.Max(1, math.Floor(float64(nCores)*s.CoRun.CPUCoreShare)))
	}
	cpuFree := make(pool, nCores)
	gpuFree := make(pool, s.P.GPUs)
	var lastDeparture float64

	// Per visit: when its batch is ready, when it is done, and whether the
	// output is then in device memory — what its consumers start from.
	readyAt := make([]float64, len(t.visits))
	doneAt := make([]float64, len(t.visits))
	leftOnGPU := make([]bool, len(t.visits))

	for lo := 0; lo < len(t.visits); {
		id := t.visits[lo].node
		hi := lo
		for ; hi < len(t.visits) && t.visits[hi].node == id; hi++ {
			if v := &t.visits[hi]; v.from < 0 {
				readyAt[hi] = v.t0
			} else {
				readyAt[hi] = doneAt[v.from]
			}
		}
		el := s.G.Node(id)
		kind := el.Traits().Kind
		pl := s.Assign[id]

		// Merge synchronization: all copies of one batch reach a
		// Merger with that batch's max ready time.
		if m, ok := el.(Merger); ok && m.ExpectedInputs() > 1 {
			maxReady := make(map[uint64]float64, (hi-lo)/m.ExpectedInputs()+1)
			for i := lo; i < hi; i++ {
				if bid := t.visits[i].batchID; readyAt[i] > maxReady[bid] {
					maxReady[bid] = readyAt[i]
				}
			}
			for i := lo; i < hi; i++ {
				readyAt[i] = maxReady[t.visits[i].batchID]
			}
		}

		for i := lo; i < hi; i++ {
			v := &t.visits[i]
			n, bytes, memDelta := v.n, v.bytes, v.mem
			inOnGPU := v.from >= 0 && leftOnGPU[v.from]

			done := readyAt[i]
			outOnGPU := false
			switch {
			case n == 0:
				// Nothing live: zero service.
			case pl.Mode == ModeGPU:
				var svc float64
				if s.segInterior[id] {
					// Interior of a fused segment: the kernel chains
					// device-side behind the head's launch.
					svc = s.cm.KernelNs(kind, n, bytes, memDelta)
				} else {
					svc, _, _ = s.cm.GPUServiceNs(kind, n, bytes, memDelta)
					res.KernelLaunches++
				}
				if !inOnGPU {
					svc += s.cm.H2DNs(bytes)
					res.H2DBytes += uint64(bytes)
				}
				done = gpuFree.run(readyAt[i], svc)
				res.GPUBusyNs += svc
				outOnGPU = true
			case pl.Mode == ModeSplit:
				nGPU := int(math.Round(pl.GPUFraction * float64(n)))
				nCPU := n - nGPU
				bGPU := int(pl.GPUFraction * float64(bytes))
				bCPU := bytes - bGPU
				memGPU := memDelta * pl.GPUFraction
				memCPU := memDelta - memGPU

				// CPU/GPU split bookkeeping (the offload thread's
				// partitioning and completion-queue join) costs a
				// fixed per-batch slice, decoupled from the
				// element-branch re-organization of Fig. 5.
				reorg := s.P.SplitPerBatchNs * 2
				res.SplitEvents++

				ready := readyAt[i]
				if inOnGPU {
					// The split is host-coordinated: fetch the batch
					// off the device first.
					d2h := s.cm.D2HNs(bytes)
					ready = gpuFree.run(ready, d2h)
					res.GPUBusyNs += d2h
					res.D2HBytes += uint64(bytes)
				}
				var cpuDone, gpuDone float64 = ready, ready
				if nCPU > 0 {
					svc := s.cm.CPUServiceNs(kind, nCPU, bCPU, memCPU) + reorg
					cpuDone = cpuFree.run(ready, svc)
					res.CPUBusyNs += svc
				}
				if nGPU > 0 {
					svc, h2d, d2h := s.cm.GPUServiceNs(kind, nGPU, bGPU, memGPU)
					svc += h2d + d2h // split halves rejoin in host memory
					gpuDone = gpuFree.run(ready, svc)
					res.GPUBusyNs += svc
					res.KernelLaunches++
					res.H2DBytes += uint64(bGPU)
					res.D2HBytes += uint64(bGPU)
				}
				// Completion-queue join preserves order: release at
				// the later of the two halves.
				done = math.Max(cpuDone, gpuDone)
			default:
				ready := readyAt[i]
				if inOnGPU {
					// Crossing back to the host: device-to-host copy.
					d2h := s.cm.D2HNs(bytes)
					ready = gpuFree.run(ready, d2h)
					res.GPUBusyNs += d2h
					res.D2HBytes += uint64(bytes)
				}
				svc := s.cm.CPUServiceNs(kind, n, bytes, memDelta)
				done = cpuFree.run(ready, svc)
				res.CPUBusyNs += svc
			}

			if el.NumOutputs() == 0 {
				// Sink: record departure (sinks are host endpoints; a
				// device-resident batch was already fetched above
				// because sinks are CPU-placed).
				res.Emitted += uint64(v.outN)
				if v.outN > 0 {
					res.Latency.Add(done - t.arrival[v.batchID])
					res.Throughput.Packets += uint64(v.outN)
					res.Throughput.Bytes += uint64(v.outBytes)
					if done > lastDeparture {
						lastDeparture = done
					}
				}
				continue
			}

			// Batch-split overhead: an element emitting multiple
			// non-empty sub-batches pays re-organization time on CPU.
			if v.nonEmpty > 1 {
				if outOnGPU {
					// Branch re-organization is host-side work: the
					// batch comes off the device and stays there.
					d2h := s.cm.D2HNs(bytes)
					done = gpuFree.run(done, d2h)
					res.GPUBusyNs += d2h
					res.D2HBytes += uint64(bytes)
					outOnGPU = false
				}
				reorg := s.P.SplitPerBatchNs*float64(v.nonEmpty) +
					s.P.SplitPerPacketNs*float64(n)
				done = cpuFree.run(done, reorg)
				res.CPUBusyNs += reorg
				res.SplitEvents++
			}
			doneAt[i], leftOnGPU[i] = done, outOnGPU
		}
		lo = hi
	}

	// The first batch is injected at time zero.
	if lastDeparture > 0 {
		res.Throughput.Nanos = int64(lastDeparture)
	}
	return res
}

// NodeService is what one node's visits in a trace hand in and cost: live
// packets, bytes and exact table accesses, and the service each side would
// charge for them. CPUNs is what Price books for the node on a CPU —
// CPUServiceNs plus the re-organization of a batch emitted on several ports
// — and GPUNs is KernelNs + CtxSwitchNs. Launches and PCIe transfers are
// left out: they are per batch or per edge, not per packet.
type NodeService struct {
	N, Bytes     int
	Mem          float64
	CPUNs, GPUNs float64
}

// ServiceByNode prices every visit of the trace on both processors under
// this simulator's contention and resident-kernel context, summed per node
// (indexed by NodeID). Under an all-CPU Assignment the CPUNs add up to
// Price's CPUBusyNs.
func (s *Simulator) ServiceByNode(t *Trace) []NodeService {
	if t.g != s.G {
		panic("hetsim: ServiceByNode of a trace recorded on another graph")
	}
	out := make([]NodeService, s.G.Len())
	for i := range t.visits {
		v := &t.visits[i]
		kind := s.G.Node(v.node).Traits().Kind
		ns := &out[v.node]
		ns.N += v.n
		ns.Bytes += v.bytes
		ns.Mem += v.mem
		ns.CPUNs += s.cm.CPUServiceNs(kind, v.n, v.bytes, v.mem)
		if v.nonEmpty > 1 {
			ns.CPUNs += s.P.SplitPerBatchNs*float64(v.nonEmpty) + s.P.SplitPerPacketNs*float64(v.n)
		}
		if v.n > 0 {
			ns.GPUNs += s.cm.KernelNs(kind, v.n, v.bytes, v.mem) + s.cm.CtxSwitchNs()
		}
	}
	return out
}

// server books non-overlapping busy intervals on one execution unit, sorted
// by start and so by end. Interval booking (rather than a single next-free
// time) lets late-ready tasks backfill idle gaps that a large ready time
// would otherwise poison in the stage-major sweep. Touching bookings
// coalesce; only a zero-duration task could tell (it may start on a booking
// boundary), and ends keeps every boundary for it.
type server struct {
	busy [][2]float64
	ends []float64
}

// earliestStart returns the first time >= ready at which a task of the
// given duration fits.
func (s *server) earliestStart(ready, duration float64) float64 {
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i][1] > ready })
	if duration == 0 && i < len(s.busy) && s.busy[i][0] < ready {
		start := s.busy[i][1]
		for _, e := range s.ends {
			if e >= ready && e < start {
				start = e
			}
		}
		return start
	}
	start := ready
	for ; i < len(s.busy); i++ {
		if s.busy[i][0]-start >= duration {
			return start
		}
		start = s.busy[i][1]
	}
	return start
}

// book records the interval, coalescing it with the neighbours it touches. A
// zero-duration booking that touches nothing stays a point a longer task may
// not straddle.
func (s *server) book(start, duration float64) {
	end := start + duration
	s.ends = append(s.ends, end)
	i := sort.Search(len(s.busy), func(i int) bool { return s.busy[i][0] > start })
	if i > 0 && s.busy[i-1][1] >= start {
		i--
		s.busy[i][1] = max(s.busy[i][1], end)
	} else {
		s.busy = slices.Insert(s.busy, i, [2]float64{start, end})
	}
	if i+1 < len(s.busy) && s.busy[i+1][0] <= s.busy[i][1] {
		s.busy[i][1] = max(s.busy[i][1], s.busy[i+1][1])
		s.busy = slices.Delete(s.busy, i+1, i+2)
	}
}

// pool is a bank of identical servers.
type pool []server

// run schedules a task of the given duration on the server able to start
// it earliest (no sooner than ready) and returns its completion time.
func (p pool) run(ready, duration float64) float64 {
	if len(p) == 0 {
		return ready + duration
	}
	best, bestStart := 0, p[0].earliestStart(ready, duration)
	for i := 1; i < len(p); i++ {
		if st := p[i].earliestStart(ready, duration); st < bestStart {
			best, bestStart = i, st
		}
	}
	p[best].book(bestStart, duration)
	return bestStart + duration
}

func countDrops(b *netpkt.Batch, drops map[string]uint64) {
	for _, p := range b.Packets {
		if p.Dropped && p.DropReason != "" {
			drops[p.DropReason]++
			p.DropReason = ""
		}
	}
}
