package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/graph"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
)

// The traced run. It is separate from the timed run: it wraps each layer's
// public calls in benchmark-side spans and reads the public counters
// (PumpStats, ShardedPipeline.Snapshot, Report.Offload, Sampler.Report,
// runtime/metrics). Layer names are the repo's module names.

// nfKinds are the element kinds nf.elem.<Kind>_ns_per_pkt is reported for on
// every workload (0 where the chain has no such element).
var nfKinds = []string{
	"CheckIPHeader", "IPLookup", "DecTTL", "EtherEncap", "ACL", "NATRewrite",
	"AhoCorasick", "IPsecSeal", "Counter", "Duplicator", "XORMerge",
}

// bench times f in chunks until box has elapsed and returns the median ns
// per unit over the chunks. f does one round of work and returns how many
// units (packets, batches, entries) it covered; a round should cover enough
// units to dwarf the clock read that follows it.
func bench(box time.Duration, f func() int) timing {
	const chunks = 7
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		t0 := time.Now()
		units := 0
		for {
			units += f()
			if time.Since(t0) >= box/chunks {
				break
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(units))
	}
	return timing{median(per), len(per)}
}

// timingBackend is the element.Backend installed on the sequential executor:
// it times every Process call from outside and books it to the element's
// kind.
type timingBackend struct {
	host *element.HostBackend
	ns   map[string]int64
	pkts map[string]int64
}

func (tb *timingBackend) Name() string { return "cpu-timed" }

func (tb *timingBackend) Process(el element.Element, b *netpkt.Batch) []*netpkt.Batch {
	kind, live := el.Traits().Kind, int64(b.Live())
	t0 := time.Now()
	outs := tb.host.Process(el, b)
	tb.ns[kind] += time.Since(t0).Nanoseconds()
	tb.pkts[kind] += live
	return outs
}

// rtSample is one reading of the runtime/metrics the runtime layer reports.
type rtSample struct {
	gcCPU, totalCPU, idleCPU float64
	gcCycles                 uint64
	sched                    *metrics.Float64Histogram
}

func readRT() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSample{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), idleCPU: s[2].Value.Float64(),
		gcCycles: s[3].Value.Uint64(),
		// The runtime reuses the histogram's storage between reads.
		sched: &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets},
	}
}

// readHeapObjects is the one reading the traced run takes every window.
func readHeapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// schedP99us is the 99th percentile of the goroutine scheduling latencies
// that accrued between two readings.
func schedP99us(a, b rtSample) float64 {
	var total uint64
	d := make([]uint64, len(b.sched.Counts))
	for i := range d {
		d[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target, cum := uint64(math.Ceil(0.99*float64(total))), uint64(0)
	for i, c := range d {
		if cum += c; cum >= target {
			hi := b.sched.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.sched.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// satPhase is a lone saturate phase of the given length (1/6 warm-up).
func satPhase(lenNs int64) *phase {
	return newPhase(0, lenNs/6, lenNs, windowNs(lenNs, 100e6), 0)
}

// layerRun carries the traced run's state across its sections.
type layerRun struct {
	r    *runner
	rep  *report
	root int
	box  time.Duration // one micro-benchmark
	live int64         // one live phase, ns
}

// span runs f inside a span named after the layer.
func (l *layerRun) span(name string, f func(id int) error) error {
	id, end := l.r.trace.begin(name, l.root)
	defer end()
	return f(id)
}

// runLayers is the traced run.
func (r *runner) runLayers(rep *report) error {
	root, end := r.trace.begin("run", 0)
	defer end()
	l := &layerRun{r: r, rep: rep, root: root,
		box:  time.Duration(r.secs / 160 * float64(time.Second)),
		live: int64(r.secs / 8 * 1e9)}
	for _, s := range []struct {
		name string
		f    func(int) error
	}{
		{"core", l.core},
		{"netpkt", l.netpkt},
		{"flowtable", l.flowtable},
		{"dataplane", l.dataplane},
		{"nf", l.nf},
		{"live", l.livePhases},
	} {
		if err := l.span(s.name, s.f); err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	// Reconciliation: the pump floor (source, parse, RSS, conntrack, one
	// inject/release hop, sink — what a packet costs through an empty
	// graph) plus the elements' own compute, against the measured CPU time
	// per packet. The residual is what the dataplane adds on top: element
	// hops, metrics and flight recording, the offload backend, GC.
	m := rep.Metrics
	sum := m["ingress.pump_floor_ns_per_pkt"].Value + m["nf.chain_ns_per_pkt"].Value
	l.rep.setv("recon.layers_sum_ns_per_pkt", "ns", sum)
	cpu := m["pump.cpu_ns_per_pkt"].Value
	l.rep.setv("recon.residual_share", "ratio", (cpu-sum)/cpu)
	return nil
}

// segments returns the linear element chains Deploy synthesizes: one per
// maximal run of sequential stages, one per branch of a parallel stage.
func segments(stages []core.Stage) []*element.Graph {
	build := func(run []*nf.NF) *element.Graph {
		seg := element.NewGraph()
		prev := element.NodeID(-1)
		for k, f := range run {
			e, x := f.Build(seg, fmt.Sprintf("seg/%s#%d", f.Name, k))
			if prev >= 0 {
				seg.MustConnect(prev, 0, e)
			}
			prev = x
		}
		return seg
	}
	var out []*element.Graph
	for i := 0; i < len(stages); {
		if len(stages[i].NFs) > 1 {
			for _, f := range stages[i].NFs {
				out = append(out, build([]*nf.NF{f}))
			}
			i++
			continue
		}
		var run []*nf.NF
		for ; i < len(stages) && len(stages[i].NFs) == 1; i++ {
			run = append(run, stages[i].NFs[0])
		}
		out = append(out, build(run))
	}
	return out
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

// core times the phases of core.Deploy one by one through their public
// functions, and reads the allocator's decision — counts that must repeat
// exactly for one seed.
func (l *layerRun) core(int) error {
	r := l.r
	chain, err := r.w.chain()
	if err != nil {
		return err
	}
	t := time.Now()
	stages := core.Parallelize(chain)
	parS := secondsSince(t)
	segs := segments(stages)
	t = time.Now()
	for _, seg := range segs {
		if _, err := core.Synthesize(seg); err != nil {
			return err
		}
	}
	synS := secondsSince(t)

	d, err := r.deploy()
	if err != nil {
		return err
	}
	g, costs := d.dep.Graph, d.dep.Costs
	t = time.Now()
	dict, err := profile.OfflineProfile(r.plat, costs, g, profile.OfflineConfig{
		BatchSize: batchSize, Sample: r.tpl.batches(sampleOff, sampleBatches, batchSize)})
	if err != nil {
		return err
	}
	offS := secondsSince(t)
	sample := r.tpl.batches(sampleOff, sampleBatches, batchSize)
	t = time.Now()
	in, err := profile.SampleIntensities(g, sample)
	if err != nil {
		return err
	}
	smpS := secondsSince(t)
	resetGraph(g)
	t = time.Now()
	ex, err := core.Expand(g, dict, in, r.plat, costs, batchSize, core.DefaultDelta)
	if err != nil {
		return err
	}
	expS := secondsSince(t)
	t = time.Now()
	graph.PartitionMultilevel(ex.W)
	partS := secondsSince(t)

	l.rep.setv("core.parallelize_s", "s", parS)
	l.rep.setv("core.synthesize_s", "s", synS)
	l.rep.setv("profile.offline_s", "s", offS)
	l.rep.setv("profile.sample_s", "s", smpS)
	l.rep.setv("core.expand_s", "s", expS)
	l.rep.setv("graph.partition_s", "s", partS)
	// What Deploy spends beyond those: candidate simulations and the
	// parallelization gate (a second plan and two more simulations).
	l.rep.setv("core.validate_residual_s", "s", d.deployS-(parS+synS+offS+smpS+expS+partS))
	l.rep.setv("core.deploy_s", "s", d.deployS)

	removed := 0
	for _, s := range d.dep.Synthesis {
		removed += s.Before - s.After
	}
	l.rep.setv("core.elements_removed", "count", float64(removed))
	l.rep.setv("core.instances", "count", float64(d.dep.Alloc.Instances))
	l.rep.setv("core.cut_ns", "sim_ns", d.dep.Alloc.CutNs)
	var frac float64
	for _, pl := range d.dep.Assignment {
		switch pl.Mode {
		case hetsim.ModeGPU:
			frac++
		case hetsim.ModeSplit:
			frac += pl.GPUFraction
		}
	}
	l.rep.setv("core.gpu_fraction", "ratio", frac/float64(g.Len()))
	l.rep.Info["core.selected"] = d.dep.Alloc.Selected
	l.rep.Info["core.stages"] = fmt.Sprintf("%d stages for %d NFs", len(d.dep.Stages), len(chain))

	res, wallNs, err := r.simulate(d.dep)
	if err != nil {
		return err
	}
	l.rep.setv("hetsim.run_ns_per_pkt", "ns", float64(wallNs)/float64(sampleBatches*batchSize))
	// The partition objective is ns per batch; the simulator then measures
	// what that placement really forwards.
	simPPS := float64(res.Throughput.Packets) / float64(res.Throughput.Nanos) * 1e9
	predPPS := batchSize / d.dep.Alloc.Cost * 1e9
	l.rep.setv("core.model_error_share", "ratio", math.Abs(predPPS-simPPS)/simPPS)
	l.rep.setv("hetsim.sim_gbps", "Gbps", res.Throughput.Gbps())
	l.rep.setv("hetsim.sim_latency_p50_us", "sim_us", res.Latency.Percentile(50)/1e3)
	return nil
}

// netpkt times the packet primitives over the workload's own frames.
func (l *layerRun) netpkt(int) error {
	tpl := l.r.tpl
	pkts := make([]*netpkt.Packet, batchSize)
	for i := range pkts {
		pkts[i] = tpl.packet(i)
	}
	l.rep.set("netpkt.parse_ns_per_pkt", "ns", bench(l.box, func() int {
		for _, p := range pkts {
			_ = p.Parse()
		}
		return len(pkts)
	}))
	a := netpkt.NewArena()
	i := 0
	l.rep.set("netpkt.arena_cycle_ns_per_pkt", "ns", bench(l.box, func() int {
		for k := 0; k < batchSize; k++ {
			f := tpl.frames[i]
			if i++; i == len(tpl.frames) {
				i = 0
			}
			p := a.GetPacket(len(f))
			copy(p.Data, f)
			netpkt.PutPacket(p)
		}
		return batchSize
	}))
	b := netpkt.NewBatch(0, pkts)
	l.rep.set("netpkt.clone_ns_per_pkt", "ns", bench(l.box, func() int {
		a.ClonePooled(b).Release()
		return batchSize
	}))
	nic := ingress.NewNIC(1)
	var dst []int
	l.rep.set("ingress.rss_ns_per_pkt", "ns", bench(l.box, func() int {
		dst = nic.QueueBatch(pkts, dst[:0])
		return len(pkts)
	}))
	return nil
}

// flowtable times the conntrack table the pump uses, configured as the pump
// configures it for this workload.
func (l *layerRun) flowtable(int) error {
	w, tpl := l.r.w, l.r.tpl
	var clock int64
	mk := func() struct{} { return struct{}{} }
	newTable := func() *flowtable.Sharded[struct{}] {
		ft := flowtable.NewSharded[struct{}](64, w.flowCapacity)
		ft.SetTTL(w.flowTTL, func() int64 { return clock })
		return ft
	}
	ft := newTable()
	for _, k := range tpl.flows {
		ft.Touch(k, mk)
	}
	l.rep.set("flowtable.touch_hit_ns", "ns", bench(l.box, func() int {
		for _, k := range tpl.flows[:1024] {
			ft.Touch(k, mk)
		}
		return 1024
	}))
	// Fresh keys on a table at its plateau: an insert plus the eviction or
	// expiry that makes room for it.
	ins := newTable()
	next := uint64(1)
	l.rep.set("flowtable.touch_insert_ns", "ns", bench(l.box, func() int {
		for k := 0; k < 1024; k++ {
			ins.Touch(next*0x9e3779b97f4a7c15|1, mk)
			next++
		}
		clock += 1024 * 1000 // 1 µs of replay clock per packet
		ins.ExpireTail(16)
		return 1024
	}))
	// Expiry alone: fill, let everything go stale, reclaim.
	const fill = 4096
	var expNs, expN int64
	deadline := time.Now().Add(l.box)
	for time.Now().Before(deadline) {
		exp := newTable()
		for k := uint64(1); k <= fill; k++ {
			exp.Touch(k*0x9e3779b97f4a7c15, mk)
		}
		clock += w.flowTTL + 1
		t := time.Now()
		n := exp.ExpireTail(fill)
		expNs += time.Since(t).Nanoseconds()
		expN += int64(n)
	}
	if expN == 0 {
		return fmt.Errorf("ExpireTail reclaimed nothing")
	}
	l.rep.set("flowtable.expire_ns_per_entry", "ns", timing{float64(expNs) / float64(expN), int(expN)})
	return nil
}

// counterGraph is FromDevice → n Counter elements → ToDevice.
func counterGraph(n int) *element.Graph {
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	for i := 0; i < n; i++ {
		id := g.Add(element.NewCounter(fmt.Sprintf("cnt%d", i)))
		g.MustConnect(prev, 0, id)
		prev = id
	}
	g.MustConnect(prev, 0, g.Add(element.NewToDevice("dst")))
	return g
}

// dataplane times the plane's own per-batch costs on graphs with no NF
// work in them, through RunBatches.
func (l *layerRun) dataplane(int) error {
	const n = 256
	batches := l.r.tpl.batches(0, n, batchSize) // read-only elements: reusable
	run := func(g *element.Graph, cfg dataplane.Config) func() int {
		cfg.QueueDepth = 8
		return func() int {
			resetGraph(g)
			if _, _, err := dataplane.RunBatches(context.Background(), g, cfg, batches); err != nil {
				panic(err) // a graph of counters cannot fail; a bug if it does
			}
			return n
		}
	}
	bare := bench(l.box, run(counterGraph(0), dataplane.Config{}))
	l.rep.set("dataplane.inject_release_ns_per_batch", "ns", bare)
	ordered := bench(l.box, run(counterGraph(0), dataplane.Config{PreserveOrder: true}))
	l.rep.set("dataplane.order_overhead_ns_per_batch", "ns", timing{ordered.value - bare.value, ordered.n})
	hops := bench(l.box, run(counterGraph(8), dataplane.Config{DisableCompile: true}))
	fused := bench(l.box, run(counterGraph(8), dataplane.Config{}))
	// Eight counters interpreted are seven more goroutine+channel hops than
	// the same eight compiled into one stage loop.
	l.rep.set("dataplane.hop_ns_per_batch", "ns", timing{(hops.value - fused.value) / 7, hops.n})
	return nil
}

// nf times every element of the deployed graph on the workload's traffic,
// through a timing Backend on the sequential executor.
func (l *layerRun) nf(int) error {
	r := l.r
	d, err := r.deploy()
	if err != nil {
		return err
	}
	x, err := element.NewExecutor(d.dep.Graph)
	if err != nil {
		return err
	}
	tb := &timingBackend{host: element.NewHostBackend(), ns: map[string]int64{}, pkts: map[string]int64{}}
	x.Backend = tb
	var injected int64
	off, id := 0, uint64(0)
	deadline := time.Now().Add(4 * l.box)
	for time.Now().Before(deadline) {
		for _, b := range r.tpl.batches(off, 16, batchSize) {
			b.ID = id // the merge pairs branches by batch id
			id++
			if _, err := x.RunBatch(b); err != nil {
				return err
			}
			injected += batchSize
		}
		off = (off + 16*batchSize) % templateLen
	}
	var sum int64
	for _, ns := range tb.ns {
		sum += ns
	}
	l.rep.set("nf.chain_ns_per_pkt", "ns", timing{float64(sum) / float64(injected), int(injected)})
	for _, k := range nfKinds {
		v := timing{}
		if tb.pkts[k] > 0 {
			v = timing{float64(tb.ns[k]) / float64(tb.pkts[k]), int(tb.pkts[k])}
		}
		l.rep.set("nf.elem."+k+"_ns_per_pkt", "ns", v)
	}
	return nil
}

// livePhases runs the plane six times, a few seconds each: as shipped,
// traced, unobserved, on an empty graph, paced, and on two shards.
func (l *layerRun) livePhases(parent int) error {
	r := l.r
	d, err := r.deploy()
	if err != nil {
		return err
	}
	g, a := []*element.Graph{d.dep.Graph}, d.dep.Assignment
	one := planeCfg{shards: 1}

	// 1. As shipped, with the meter, queue sampling and one hot swap.
	ph := satPhase(l.live)
	var m meter
	var rt0, rt1 rtSample
	var queueMax int
	var heapPeak uint64
	var swapS float64
	base, err := r.live(g, a, one, feed{phases: []*phase{ph}}, func(t0 time.Time, lr *liveRun) {
		sleepUntil(t0, ph.warm)
		rt0 = readRT()
		ticks := 0
		m.run(t0, ph, lr.snk, func() {
			for _, e := range lr.sp.Snapshot().Elements {
				queueMax = max(queueMax, e.QueueLen)
			}
			heapPeak = max(heapPeak, readHeapObjects())
			if ticks++; ticks == 10 {
				t := time.Now()
				if err := lr.sp.Apply(a); err == nil {
					swapS = secondsSince(t)
				}
			}
		})
		rt1 = readRT()
	})
	if err != nil {
		return err
	}
	rates := windowRates(ph)
	capBase := midmean(rates)
	l.rep.set("pump.capacity_pps", "1/s", timing{capBase, len(rates)})
	l.rep.set("pump.cpu_ns_per_pkt", "ns", timing{midmean(m.cpuPerPkt), len(m.cpuPerPkt)})
	n := float64(max(m.pkts(), 1))
	l.rep.setv("runtime.allocs_per_pkt", "count", float64(m.last.mallocs-m.first.mallocs)/n)
	l.rep.setv("runtime.alloc_bytes_per_pkt", "B", float64(m.last.bytes-m.first.bytes)/n)
	l.rep.setv("runtime.gc_cycles_per_mpkt", "count", float64(rt1.gcCycles-rt0.gcCycles)/n*1e6)
	// The runtime refreshes its CPU classes only at a GC cycle: 0/0 (no
	// cycle in the phase) is recorded as 0.
	busy := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	l.rep.setv("runtime.gc_cpu_share", "ratio", (rt1.gcCPU-rt0.gcCPU)/busy)
	l.rep.setv("runtime.heap_peak_mb", "MB", float64(heapPeak)/1e6)
	l.rep.setv("runtime.sched_latency_p99_us", "us", schedP99us(rt0, rt1))

	st, snap := base.st, base.sp.Snapshot()
	l.rep.setv("flowtable.new_flows_per_kpkt", "count", float64(st.Flows)/float64(st.Packets)*1e3)
	l.rep.setv("flowtable.peak_flows", "count", float64(st.PeakFlows))
	l.rep.setv("flowtable.expired_share", "ratio", float64(st.ExpiredFlows)/float64(st.Flows))
	l.rep.setv("netpkt.arena_outstanding", "count", float64(base.residue))

	var procNs, waitNs float64
	for _, e := range snap.Elements {
		procNs += e.Proc.Sum
		waitNs += float64(e.SendWaitNs)
	}
	l.rep.setv("dataplane.send_wait_share", "ratio", waitNs/(procNs+waitNs))
	l.rep.setv("dataplane.queue_depth_max", "count", float64(queueMax))
	l.rep.setv("dataplane.apply_swap_s", "s", swapS)
	nb := float64(max(snap.InBatches, 1))
	off := snap.Offload
	l.rep.setv("dataplane.compiled_hops_saved_per_batch", "count", float64(off.CompiledHopsSaved)/nb)
	l.rep.setv("dataplane.offload.launches_per_batch", "count", float64(off.KernelLaunches)/nb)
	l.rep.setv("dataplane.offload.h2d_per_batch", "count", float64(off.H2DTransfers)/nb)
	l.rep.setv("dataplane.offload.transfers_saved_per_batch", "count", float64(off.TransfersSaved)/nb)
	l.rep.setv("dataplane.offload.gpu_busy_ns_per_pkt", "sim_ns", float64(off.GPUBusyNs)/float64(max(snap.InPackets, 1)))
	l.rep.setv("dataplane.offload.overlap_share", "ratio", float64(off.OverlapNs)/float64(off.GPUBusyNs))
	l.rep.setv("dataplane.offload.fused_segments", "count", float64(off.FusedSegments))
	br := base.smp.Report()
	l.rep.setv("flight.limiting_util", "ratio", br.LimitingUtil)
	l.rep.Info["flight.limiting_stage"] = br.Limiting

	// later reuses the deployed graph for another short run.
	later := func(pc planeCfg, graphs []*element.Graph, asg hetsim.Assignment, tf feed) (*liveRun, error) {
		for _, gr := range graphs {
			resetGraph(gr)
		}
		return r.live(graphs, asg, pc, tf, nil)
	}

	// 2. Traced: a clock read either side of every Next and Consume.
	ph = satPhase(l.live)
	tr, err := later(planeCfg{shards: 1, traced: true, parent: parent}, g, a, feed{phases: []*phase{ph}})
	if err != nil {
		return err
	}
	l.rep.setv("bench.trace_overhead_share", "ratio", 1-midmean(windowRates(ph))/capBase)
	l.rep.set("bench.source_ns_per_pkt", "ns", timing{float64(tr.tsrc.ns) / float64(max(tr.tsrc.calls, 1)), int(tr.tsrc.calls)})
	l.rep.set("bench.sink_ns_per_batch", "ns", timing{float64(tr.tsnk.ns) / float64(max(tr.tsnk.calls, 1)), int(tr.tsnk.calls)})

	// 3. Metrics and the flight recorder off.
	ph = satPhase(l.live)
	if _, err = later(planeCfg{shards: 1, noObserv: true}, g, a, feed{phases: []*phase{ph}}); err != nil {
		return err
	}
	l.rep.setv("flight.overhead_share", "ratio", 1-capBase/midmean(windowRates(ph)))

	// 4. The pump over an empty graph: what a packet costs before any NF.
	ph = satPhase(l.live)
	if _, err = later(one, []*element.Graph{counterGraph(0)}, nil, feed{phases: []*phase{ph}}); err != nil {
		return err
	}
	l.rep.setv("ingress.pump_floor_ns_per_pkt", "ns", 1e9/midmean(windowRates(ph)))

	// 5. Paced, at the workload's frozen rate.
	ph = newPhase(0, l.live/12, l.live, windowNs(l.live, 250e6), r.w.pacedPPS)
	pr, err := later(one, g, a, feed{phases: []*phase{ph}})
	if err != nil {
		return err
	}
	p50s, p99s := windowLatencies(ph)
	l.rep.set("pump.latency_p50_us", "us", timing{median(p50s), len(p50s)})
	l.rep.set("pump.latency_p99_us", "us", timing{median(p99s), len(p99s)})
	l.rep.setv("bench.gen_late_share", "ratio", float64(pr.src.late)/float64(pr.src.paced))

	// 6. Two shards, two RX workers, every CPU: the only phase off one P.
	d2, err := r.deploy()
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(runtime.NumCPU())
	ph = satPhase(l.live)
	two, err := later(planeCfg{shards: 2}, []*element.Graph{d.dep.Graph, d2.dep.Graph}, a, feed{phases: []*phase{ph}})
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	l.rep.setv("ingress.parallel_scale2_ratio", "ratio", two.st.PPS/capBase)
	return nil
}
