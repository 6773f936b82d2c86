package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
)

// runner holds one invocation's inputs and its running failure account.
type runner struct {
	w     *workload
	seed  int64
	tpl   *template
	plat  hetsim.Platform
	secs  float64 // -seconds: total measured time, split over the phases
	trace *tracer // nil on untraced runs

	attempted, failed uint64
	notes             []string
}

func newRunner(w *workload, seed int64, secs float64) *runner {
	return &runner{w: w, seed: seed, tpl: makeTemplate(w, seed),
		plat: hetsim.DefaultPlatform(), secs: secs}
}

func (r *runner) fail(n uint64, format string, a ...any) {
	if n == 0 {
		return
	}
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// deployment is one fresh build of the workload's chain.
type deployment struct {
	dep     *core.Deployment
	buildS  float64 // NF construction (ACL/AC/LPM tables)
	deployS float64 // core.Deploy alone
}

// deploy builds the chain with the repo's constructors and runs core.Deploy
// with the options nfcompass ships (everything on), against the seed's
// sample traffic. The sample is generated before the clock starts: it is an
// input, not work the program does.
func (r *runner) deploy() (*deployment, error) {
	sample := r.tpl.batches(sampleOff, sampleBatches, batchSize)
	t0 := time.Now()
	chain, err := r.w.chain()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	d, err := core.Deploy(chain, r.plat, sample, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	if err := r.w.checkShape(d, len(chain)); err != nil {
		return nil, err
	}
	return &deployment{dep: d, buildS: t1.Sub(t0).Seconds(), deployS: t2.Sub(t1).Seconds()}, nil
}

// planeCfg selects the live plane's shape. {shards: 1} is what
// `nfcompass -source nic:queues=1` ships: one shard, single-reader pump,
// QueueDepth 8, metrics and the flight recorder (sampler running) on.
type planeCfg struct {
	shards   int
	noObserv bool // Metrics and Flight both off (flight.overhead_share's other arm)
	traced   bool // wrap source and sink in span-recording timers
	parent   int  // span the traced wrappers hang their spans under
}

// feed is what one pump run is fed: the phases of a measured run, or a
// finite unpaced burst of limit packets.
type feed struct {
	phases  []*phase
	limit   uint64
	collect bool // retain outputs (verification)
}

// liveRun is one pump run and everything read back from it.
type liveRun struct {
	st       *ingress.PumpStats
	sp       *dataplane.ShardedPipeline
	smp      *flight.Sampler
	src      *source
	snk      *sink
	tsrc     *tracedSource
	tsnk     *tracedSink
	discard  *ingress.DiscardSink // multi-shard runs only
	residue  int64                // NIC arena packets outstanding after the drain
	startupS float64              // NewSharded + pump start until the first batch left the sink
}

// live builds the sharded plane over graphs (one per shard) and pumps the
// given traffic through it. during, when non-nil, runs concurrently with the
// pump (meters, samplers) and is waited for.
func (r *runner) live(graphs []*element.Graph, a hetsim.Assignment, pc planeCfg, tf feed,
	during func(t0 time.Time, lr *liveRun)) (*liveRun, error) {

	tStart := time.Now()
	nic := ingress.NewNIC(pc.shards)
	var rec *flight.Recorder
	var smp *flight.Sampler
	if !pc.noObserv {
		rec = flight.New(flight.Config{})
		smp = flight.NewSampler(rec, flight.DefaultSampleInterval)
	}
	sp, err := dataplane.NewSharded(func(i int) (*element.Graph, error) { return graphs[i], nil },
		dataplane.ShardedConfig{
			Shards: pc.shards,
			Config: dataplane.Config{
				QueueDepth: 8, Metrics: !pc.noObserv, Flight: rec,
				Assignment: a,
				Offload:    &dataplane.OffloadConfig{Platform: &r.plat},
			},
			ShardOut: pc.shards > 1,
		})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	lr := &liveRun{sp: sp, smp: smp,
		src: &source{tpl: r.tpl, arena: nic.Arena(0), rekey: r.w.rekey, t0: t0, phases: tf.phases, limit: tf.limit},
		snk: &sink{t0: t0, phases: tf.phases, collect: tf.collect},
	}
	var in ingress.Source = lr.src
	var out ingress.Sink = lr.snk
	switch {
	case pc.traced:
		lr.tsrc = &tracedSource{source: lr.src, tr: r.trace, parent: pc.parent}
		lr.tsnk = &tracedSink{sink: lr.snk, tr: r.trace, parent: pc.parent}
		in, out = lr.tsrc, lr.tsnk
	case pc.shards > 1:
		// Per-shard drains consume concurrently; the windowed sink is
		// single-consumer, so multi-shard runs only count.
		lr.discard = &ingress.DiscardSink{}
		out = lr.discard
	}
	done := make(chan struct{})
	if during != nil {
		go func() { defer close(done); during(t0, lr) }()
	} else {
		close(done)
	}
	smp.Start()
	st, err := ingress.Pump(context.Background(), in, sp, out, ingress.PumpConfig{
		BatchSize: batchSize, NIC: nic,
		FlowTTL: r.w.flowTTL, FlowCapacity: r.w.flowCapacity,
		RXWorkers: pc.shards, Flight: rec,
	})
	smp.Stop()
	lr.src.Close()
	<-done
	if err != nil {
		return nil, err
	}
	lr.st = st
	lr.startupS = t0.Sub(tStart).Seconds() + float64(lr.snk.firstOut)/1e9

	// Conservation: everything offered came out alive, was dropped by
	// policy inside the chain, or is a failure.
	delivered := lr.snk.total.Load()
	if lr.discard != nil {
		delivered = lr.discard.Packets.Load()
	}
	r.attempted += st.Packets
	r.fail(absDiff(st.Packets, st.OutPackets+st.Drops), "%s: pump offered %d, plane returned %d live + %d dropped", r.w.name, st.Packets, st.OutPackets, st.Drops)
	r.fail(absDiff(delivered, st.OutPackets), "%s: sink saw %d live packets, pump counted %d", r.w.name, delivered, st.OutPackets)
	r.fail(absDiff(lr.src.n, st.Packets), "%s: source handed out %d packets, pump counted %d", r.w.name, lr.src.n, st.Packets)
	for q := 0; q < pc.shards; q++ {
		lr.residue += nic.Arena(q).Outstanding()
	}
	// An XOR merge emits fresh copies and leaves the arena originals to the
	// garbage collector (seed behaviour), so behind one the residue is every
	// packet offered: it is reported as netpkt.arena_outstanding, and
	// counted as a failure only on graphs that drain to zero at the seed.
	if !hasKind(graphs[0], "XORMerge") {
		r.fail(uint64(max(lr.residue, -lr.residue)), "%s: %d arena packets outstanding after the drain", r.w.name, lr.residue)
	}
	if rec != nil {
		r.fail(rec.Ledger().Total(), "%s: loss ledger: %s", r.w.name, rec.Ledger())
	}
	return lr, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func resetGraph(g *element.Graph) {
	for i := 0; i < g.Len(); i++ {
		if rs, ok := g.Node(element.NodeID(i)).(element.Resetter); ok {
			rs.Reset()
		}
	}
}

// verify pushes the fixed 64-batch sample through the live one-shard plane
// and through the sequential element.Executor on an identically built graph,
// and counts every difference between the two output multisets (drop reasons
// included) as a failure. One shard and a single reader keep NAT port order
// deterministic. Both deployments' timings serve as set-up samples; the
// oracle deployment comes back reset, for the simulation.
func (r *runner) verify() (liveDep, oracle *deployment, startupS float64, err error) {
	if liveDep, err = r.deploy(); err != nil {
		return
	}
	lr, err := r.live([]*element.Graph{liveDep.dep.Graph}, liveDep.dep.Assignment, planeCfg{shards: 1},
		feed{limit: verifyBatches * batchSize, collect: true}, nil)
	if err != nil {
		return
	}
	if oracle, err = r.deploy(); err != nil {
		return
	}
	x, err := element.NewExecutor(oracle.dep.Graph)
	if err != nil {
		return
	}
	diff := make(map[string]int)
	for _, o := range lr.snk.outputs {
		diff[o]++
	}
	for _, b := range r.tpl.batches(0, verifyBatches, batchSize) {
		outs, xerr := x.RunBatch(b)
		if xerr != nil {
			err = xerr
			return
		}
		for _, bs := range outs {
			for _, ob := range bs {
				for _, p := range ob.Packets {
					if !p.Dropped {
						diff[string(p.Data)]--
					}
				}
			}
		}
	}
	// The executor clears DropReason as it books a drop, so its drop side
	// is its per-reason tally.
	for reason, n := range x.Stats.Drops {
		diff["drop:"+reason] -= int(n)
	}
	var liveOnly, oracleOnly uint64
	for _, n := range diff {
		if n > 0 {
			liveOnly += uint64(n)
		} else {
			oracleOnly += uint64(-n)
		}
	}
	r.fail(max(liveOnly, oracleOnly), "%s: live plane and sequential executor disagree (%d outputs live-only, %d oracle-only)",
		r.w.name, liveOnly, oracleOnly)
	resetGraph(oracle.dep.Graph)
	return liveDep, oracle, liveDep.buildS + liveDep.deployS + lr.startupS, nil
}

// simulate runs the chosen placement on the default platform over 120 seed
// batches — the paper's headline numbers, a pure function of the seed. The
// graph comes back reset.
func (r *runner) simulate(d *core.Deployment) (res *hetsim.Result, wallNs int64, err error) {
	in := r.tpl.batches(simOff, sampleBatches, batchSize)
	t0 := time.Now()
	res, err = d.Simulate(in, 0)
	wallNs = time.Since(t0).Nanoseconds()
	resetGraph(d.Graph)
	return
}

// usage is one reading of the process's cumulative cost counters.
type usage struct {
	cpuNs          int64
	mallocs, bytes uint64
	pkts           uint64
}

func cpuNs() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func readUsage(k *sink) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpuNs: cpuNs(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pkts: k.total.Load()}
}

func sleepUntil(t0 time.Time, ns int64) {
	if d := time.Until(t0.Add(time.Duration(ns))); d > 0 {
		time.Sleep(d)
	}
}

// meter reads the process's cost counters over the measured part of a phase
// from a goroutine that sleeps in between: allocation totals at both ends,
// CPU time per packet once per window. each, when non-nil, is called at
// every window boundary (the traced run samples queue depths there).
type meter struct {
	first, last usage
	cpuPerPkt   []float64
}

func (m *meter) run(t0 time.Time, ph *phase, k *sink, each func()) {
	sleepUntil(t0, ph.warm)
	m.first = readUsage(k)
	prevCPU, prevPkts := m.first.cpuNs, m.first.pkts
	for t := ph.warm + ph.winNs; t <= ph.end-ph.winNs/2; t += ph.winNs {
		sleepUntil(t0, t)
		c, p := cpuNs(), k.total.Load()
		if p > prevPkts {
			m.cpuPerPkt = append(m.cpuPerPkt, float64(c-prevCPU)/float64(p-prevPkts))
		}
		prevCPU, prevPkts = c, p
		if each != nil {
			each()
		}
	}
	m.last = readUsage(k)
}

// pkts is the packet count the allocation totals are divided by.
func (m *meter) pkts() uint64 { return m.last.pkts - m.first.pkts }

// phasePlan splits -seconds evenly over the saturate and the paced phase.
// The warm-ups (1/6 and 1/12 of a phase: 2 s and 1 s of a 12 s phase) are
// part of the budget and discarded.
func (r *runner) phasePlan() (sat, paced *phase) {
	half := int64(r.secs * 1e9 / 2)
	sat = newPhase(0, half/6, half, windowNs(half, 100e6), 0)
	paced = newPhase(half, half/12, half, windowNs(half, 250e6), r.w.pacedPPS)
	return
}

// windowNs is the wanted window length, shortened so that even a smoke-test
// phase holds 20 windows.
func windowNs(phaseNs, want int64) int64 {
	return min(want, phaseNs/20)
}

// windowRates returns the sink rate of every measured window of ph: the
// packets delivered between the previous window's last batch and this
// window's, over the time between the two.
func windowRates(ph *phase) []float64 {
	var rates []float64
	ws := ph.measured()
	for i := 1; i < len(ws); i++ {
		if dt := ws[i].lastNs - ws[i-1].lastNs; ws[i-1].lastNs > 0 && dt > 0 {
			rates = append(rates, float64(ws[i].cum-ws[i-1].cum)/(float64(dt)/1e9))
		}
	}
	return rates
}

// minP99Samples is the fewest latencies a paced window needs before its p99
// counts (ten samples beyond the percentile).
const minP99Samples = 1000

// windowLatencies returns the per-window p50 and p99 (µs) of a paced phase.
func windowLatencies(ph *phase) (p50s, p99s []float64) {
	ws := ph.measured()
	for i := range ws {
		w := &ws[i]
		if w.pkts == 0 {
			continue
		}
		p50s = append(p50s, w.lat.quantile(0.50)/1e3)
		if w.pkts >= minP99Samples {
			p99s = append(p99s, w.lat.quantile(0.99)/1e3)
		}
	}
	return
}

// runE2E is the timed, untraced run: verification, set-up repetitions, and
// one pump run holding the saturate and then the paced phase. It records the
// end-to-end metrics in rep.Metrics; rep.Info carries, for the reader only,
// the quantities that are per-layer metrics of the traced run.
func (r *runner) runE2E(rep *report) error {
	var setups, deploys []float64
	tSetup := time.Now()

	liveDep, oracle, s0, err := r.verify()
	if err != nil {
		return err
	}
	setups = append(setups, s0)
	deploys = append(deploys, liveDep.deployS, oracle.deployS)
	sim, _, err := r.simulate(oracle.dep)
	if err != nil {
		return err
	}

	// Set-up repetitions: build, deploy, start the plane, one batch out.
	// At least 5 samples in all and 2 s of set-up work, at most 8 s (of a
	// 24 s run; a smoke test scales both down); the measured run below
	// contributes the last sample.
	budget := min(2, r.secs/12)
	for i := 0; ; i++ {
		spent := time.Since(tSetup).Seconds()
		if (len(setups) >= 4 && spent >= budget) || spent >= 4*budget || i >= 200 {
			break
		}
		d, err := r.deploy()
		if err != nil {
			return err
		}
		lr, err := r.live([]*element.Graph{d.dep.Graph}, d.dep.Assignment, planeCfg{shards: 1}, feed{limit: batchSize}, nil)
		if err != nil {
			return err
		}
		setups = append(setups, d.buildS+d.deployS+lr.startupS)
		deploys = append(deploys, d.deployS)
	}

	d, err := r.deploy()
	if err != nil {
		return err
	}
	sat, paced := r.phasePlan()
	var m meter
	lr, err := r.live([]*element.Graph{d.dep.Graph}, d.dep.Assignment, planeCfg{shards: 1},
		feed{phases: []*phase{sat, paced}},
		func(t0 time.Time, lr *liveRun) { m.run(t0, sat, lr.snk, nil) })
	if err != nil {
		return err
	}
	setups = append(setups, d.buildS+d.deployS+lr.startupS)
	deploys = append(deploys, d.deployS)
	rates := windowRates(sat)
	p50s, p99s := windowLatencies(paced)
	if len(rates) == 0 || len(m.cpuPerPkt) == 0 || len(p50s) == 0 {
		r.fail(1, "%s: a phase produced no measured window", r.w.name)
	}

	rep.set("setup_s", "s", timing{median(setups), len(setups)})
	rep.set("deploy_s", "s", timing{median(deploys), len(deploys)})
	rep.set("capacity_pps", "1/s", timing{midmean(rates), len(rates)})
	rep.set("cpu_ns_per_pkt", "ns", timing{midmean(m.cpuPerPkt), len(m.cpuPerPkt)})
	rep.set("latency_p50_us", "us", timing{median(p50s), len(p50s)})

	n := float64(max(m.pkts(), 1))
	info := func(k, format string, a ...any) { rep.Info[k] = fmt.Sprintf(format, a...) }
	info("hetsim.sim_gbps", "%.10g", sim.Throughput.Gbps())
	info("hetsim.sim_latency_p50_us", "%.10g", sim.Latency.Percentile(50)/1e3)
	info("runtime.allocs_per_pkt", "%.6g", float64(m.last.mallocs-m.first.mallocs)/n)
	info("runtime.alloc_bytes_per_pkt", "%.6g", float64(m.last.bytes-m.first.bytes)/n)
	info("pump.latency_p99_us", "%.6g (n=%d windows)", median(p99s), len(p99s))
	info("bench.gen_late_share", "%.6g", float64(lr.src.late)/float64(max(lr.src.paced, 1)))
	info("netpkt.arena_outstanding", "%d", lr.residue)
	info("paced_pps", "%.0f", r.w.pacedPPS)
	info("policy_drops", "%d", lr.snk.dropped())
	return nil
}
