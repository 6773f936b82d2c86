package core

import (
	"fmt"
	"slices"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/profile"
)

// Options configures a Deploy run; zero-value fields fall back to the
// defaults of DefaultOptions. The three technique switches exist so the
// evaluation can ablate each contribution (paper §V-B/V-C).
type Options struct {
	// Parallelize enables SFC-level re-organization (§IV-B-1).
	Parallelize bool
	// Synthesize enables NF-level element merging (§IV-B-2).
	Synthesize bool
	// GTA enables graph-partition task allocation (§IV-C); when off the
	// deployment stays CPU-only.
	GTA bool
	// Algorithm selects the partitioner.
	Algorithm Algorithm
	// BatchSize is the I/O batch size (default 64).
	BatchSize int
}

// DefaultOptions enables every NFCompass technique.
func DefaultOptions() Options {
	return Options{
		Parallelize: true,
		Synthesize:  true,
		GTA:         true,
		Algorithm:   AlgoMultilevel,
		BatchSize:   64,
	}
}

// Deployment is a fully prepared SFC: the re-organized element graph, its
// CPU/GPU assignment, and the reports of each pipeline phase. Graph is the
// control path's copy: Deploy and Adaptor.Observe execute it functionally.
// A live dataplane runs replicas from Build instead, so the two never share
// an element instance.
type Deployment struct {
	Graph      *element.Graph
	Assignment hetsim.Assignment
	// Stages is the stage plan of a one-tenant deployment; a composition
	// of two or more tenants leaves it nil (each tenant has its own plan).
	Stages []Stage
	// Tenants labels each tenant's own nodes with its name, the shape
	// dataplane.Config.Tenants takes. Shared nodes (source, cross-tenant
	// prefix, demux) are absent, and so is every node of Deploy's
	// untagged chain.
	Tenants   map[element.NodeID]string
	Synthesis []*SynthesisReport
	Alloc     *AllocReport
	Platform  hetsim.Platform
	Costs     map[string]hetsim.ElemCost

	opt   Options // as Deploy resolved them; Build, place and NewAdaptor read them
	plans []plan  // one per tenant; Build rebuilds the graph from them
}

// Tenant is one chain of a composed deployment: its packets carry Tag in
// netpkt.Packet.Tenant, and its nodes are named and labeled Name.
type Tenant struct {
	Name  string
	Tag   uint16
	Chain []*nf.NF
}

// plan is one tenant's stage plan.
type plan struct {
	Tenant
	stages []Stage
}

// Build constructs one replica of the deployment's graph — the callback
// shape dataplane.NewSharded wants. It rebuilds the stage plans with fresh
// element instances and executes nothing; d, its Synthesis reports
// included, is left as it was. The shard index is unused: replicas are
// identical, node IDs included, so d.Assignment places every one of them.
func (d *Deployment) Build(shard int) (*element.Graph, error) {
	g, _, _, err := buildGraph(d.plans, d.opt)
	return g, err
}

// Deploy runs the NFCompass pipeline on a sequential SFC: orchestrate
// (parallelize), synthesize, build the deployment graph, profile it with
// one functional pass over the sample traffic, and allocate tasks. sample is
// only read: every pass that consumes traffic runs on a copy of its own.
// It is DeployTenants with one untagged tenant.
func Deploy(chain []*nf.NF, p hetsim.Platform, sample []*netpkt.Batch, opt Options) (*Deployment, error) {
	return DeployTenants([]Tenant{{Chain: chain}}, p, sample, opt)
}

// DeployTenants runs the pipeline once over one graph that composes the
// tenants' chains:
//
//	src → shared prefix → TenantDemux ─┬→ tenant A's plan → dst/A
//	                                   └→ tenant B's plan → dst/B
//
// The shared prefix runs once, on the mixed stream: it is every stateless
// read-only classifier that each tenant's synthesized first segment holds
// (by signature) in its leading read-only run, where the synthesizer's own
// re-order rule may move it to the front (runsOnce). sample is the
// tenants' tagged traffic: the one functional pass, the weights and GTA run
// over the whole composed graph, shared prefix included. Tagged
// tenants need distinct names and distinct non-zero tags; one untagged
// tenant (Deploy) builds src → its plan → dst, with no demux.
func DeployTenants(tenants []Tenant, p hetsim.Platform, sample []*netpkt.Batch, opt Options) (*Deployment, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	if opt.BatchSize == 0 {
		opt.BatchSize = 64
	}
	costs := hetsim.DefaultCosts()

	sequential := make([]plan, len(tenants))
	plans := make([]plan, len(tenants))
	reorganized := false
	names, tags := map[string]bool{}, map[uint16]bool{}
	for i, t := range tenants {
		if len(t.Chain) == 0 {
			return nil, fmt.Errorf("core: empty chain")
		}
		if len(tenants) > 1 && (t.Tag == 0 || tags[t.Tag] || names[t.Name]) {
			return nil, fmt.Errorf("core: tenant %q tag %d: composed tenants need distinct names and non-zero tags",
				t.Name, t.Tag)
		}
		names[t.Name], tags[t.Tag] = true, true
		sequential[i] = plan{Tenant: t, stages: make([]Stage, 0, len(t.Chain))}
		for _, f := range t.Chain {
			sequential[i].stages = append(sequential[i].stages, Stage{NFs: []*nf.NF{f}})
		}
		plans[i] = sequential[i]
		if opt.Parallelize {
			plans[i].stages = Parallelize(t.Chain)
			reorganized = reorganized || len(plans[i].stages) < len(t.Chain)
		}
	}

	d, err := deployPlan(plans, p, sample, opt, costs)
	if err != nil {
		return nil, err
	}

	// Parallelization acceptance gate (paper §V-B-1: re-organization must
	// keep throughput "in a reasonable range", <10% reduction): when the
	// orchestrator found parallelism and sample traffic is available,
	// compare against the sequential plan and accept the parallel one
	// only if it costs at most 10% throughput (its payoff is latency).
	if reorganized && len(sample) > 0 {
		seqD, err := deployPlan(sequential, p, sample, opt, costs)
		if err != nil {
			return nil, err
		}
		var gbps, seqGbps float64
		if opt.GTA {
			gbps, seqGbps = d.Alloc.Gbps, seqD.Alloc.Gbps
		} else {
			// Nothing validated these plans on the sample: simulate each once.
			if gbps, err = d.sampleGbps(sample); err != nil {
				return nil, err
			}
			if seqGbps, err = seqD.sampleGbps(sample); err != nil {
				return nil, err
			}
		}
		if gbps < 0.9*seqGbps {
			return seqD, nil
		}
	}
	return d, nil
}

// cloneBatches deep-copies sample traffic for one pass that consumes it.
func cloneBatches(in []*netpkt.Batch) []*netpkt.Batch {
	out := make([]*netpkt.Batch, len(in))
	for i, b := range in {
		out[i] = b.Clone()
	}
	return out
}

// sampleGbps simulates the deployment on a copy of the sample and leaves
// the graph reset.
func (d *Deployment) sampleGbps(sample []*netpkt.Batch) (float64, error) {
	res, err := d.Simulate(cloneBatches(sample), 0)
	d.Graph.Reset()
	if err != nil {
		return 0, err
	}
	return res.Throughput.Gbps(), nil
}

// deployPlan builds the tenants' stage plans into a full deployment
// (graph, profile, allocation); with GTA on, d.Alloc.Gbps is the throughput
// its assignment measured on the sample.
func deployPlan(plans []plan, p hetsim.Platform, sample []*netpkt.Batch, opt Options,
	costs map[string]hetsim.ElemCost) (*Deployment, error) {
	g, syn, tenants, err := buildGraph(plans, opt)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Graph: g, Tenants: tenants, Synthesis: syn, Platform: p, Costs: costs,
		opt: opt, plans: plans}
	if len(plans) == 1 {
		d.Stages = plans[0].stages
	}

	if !opt.GTA {
		d.Assignment = hetsim.Assignment{}
		return d, nil
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("core: GTA requires sample traffic")
	}

	// The plan's one pass over its own sample traffic is the profile:
	// content-dependent element costs (ACL probes, DFA walks) are the real
	// ones, on the traffic each element sees in the chain.
	ps, err := execute(g, p, costs, cloneBatches(sample))
	if err != nil {
		return nil, fmt.Errorf("core: traffic sampling: %w", err)
	}
	if err := d.place(ps); err != nil {
		return nil, err
	}
	return d, nil
}

// pass is a plan's one functional pass over a sample, the all-CPU simulator
// that ran it, and what the allocator reads from it: the trace every
// placement is priced from, its intensities and its dictionary.
type pass struct {
	sim   *hetsim.Simulator
	trace *hetsim.Trace
	in    *profile.Intensities
	dict  *profile.Dictionary
}

// execute runs the pass from Reset and leaves the graph reset.
func execute(g *element.Graph, p hetsim.Platform, costs map[string]hetsim.ElemCost,
	batches []*netpkt.Batch) (*pass, error) {
	sim, err := hetsim.NewSimulator(p, costs, g, nil)
	if err != nil {
		return nil, err
	}
	g.Reset()
	trace, err := sim.Execute(batches, 0)
	g.Reset()
	if err != nil {
		return nil, err
	}
	ps := &pass{sim: sim, trace: trace}
	if ps.in, err = profile.IntensitiesOf(trace); err != nil {
		return nil, err
	}
	if ps.dict, err = profile.DictionaryOf(sim, trace); err != nil {
		return nil, err
	}
	return ps, nil
}

// place allocates the graph's tasks and adopts the winner of the
// sample-driven validation: the partition model is linear — it cannot see
// mode-split ping-pong (a chain of half-offloaded elements pays PCIe in
// both directions at every stage) and, with the segment-fusion contiguity
// reward, leans toward keeping fusable runs whole — so a small candidate
// set is evaluated on the sample rather than trusting the raw model
// output. What the elements compute does not depend on the placement, so
// every candidate is priced from the sample's one trace, and the model's
// weights come from that trace too. The winner's Gbps goes on d.Alloc (the
// gate's figure and the decision journal's measured column); on error the
// deployment keeps the placement it had.
func (d *Deployment) place(ps *pass) error {
	model, rep, err := Allocate(d.Graph, ps.dict, ps.in, d.Platform, d.Costs, d.opt.BatchSize, DefaultDelta, d.opt.Algorithm)
	if err != nil {
		return fmt.Errorf("core: allocation: %w", err)
	}

	// Rounded variant: snap every split element to its majority side.
	rounded := make(hetsim.Assignment, len(model))
	for id, pl := range model {
		switch {
		case pl.Mode == hetsim.ModeSplit && pl.GPUFraction >= 0.5:
			rounded[id] = hetsim.Placement{Mode: hetsim.ModeGPU}
		case pl.Mode == hetsim.ModeSplit:
			// CPU default: omit.
		default:
			rounded[id] = pl
		}
	}

	// Heavy-only variant: keep the model's choices for compute kernels,
	// return glue elements (header checks, counters) to the CPU — a
	// partitioner that wandered into offloading cheap elements gets a
	// cleaned-up alternative.
	heavy := make(map[string]bool, len(hetsim.HeavyKinds))
	for _, k := range hetsim.HeavyKinds {
		heavy[k] = true
	}
	heavyOnly := make(hetsim.Assignment, len(model))
	for id, pl := range model {
		if heavy[d.Graph.Node(id).Traits().Kind] {
			heavyOnly[id] = pl
		}
	}

	candidates := []struct {
		name string
		a    hetsim.Assignment
	}{
		{"model", model},
		{"model-rounded", rounded},
		{"model-heavy-only", heavyOnly},
		{"cpu-only", hetsim.Assignment{}},
		{"gpu-heavy", hetsim.GPUHeavy(d.Graph)},
	}

	best, bestGbps := 0, -1.0
	for i, c := range candidates {
		sim, err := hetsim.NewSimulator(d.Platform, d.Costs, d.Graph, c.a)
		if err != nil {
			return fmt.Errorf("core: assignment validation: %w", err)
		}
		// Strict >: the first of equal candidates stays.
		if g := sim.Price(ps.trace).Throughput.Gbps(); g > bestGbps {
			best, bestGbps = i, g
		}
	}
	rep.Selected, rep.Gbps = candidates[best].name, bestGbps
	d.Assignment, d.Alloc = candidates[best].a, rep
	return nil
}

// buildGraph assembles the deployment element graph from the tenants'
// stage plans (see DeployTenants for the composed shape) and returns it with
// one synthesis report per synthesized segment and the tenants' node labels.
func buildGraph(plans []plan, opt Options) (*element.Graph, []*SynthesisReport, map[element.NodeID]string, error) {
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	// With two or more tenants every first segment is built up front: the
	// elements of the first tenant's leading read-only run that runsOnce
	// admits are cut from every tenant's sequence, and the first tenant's
	// instances of them run once, ahead of the demux.
	leads := make([]*segment, len(plans))
	for i, p := range plans {
		if run := leadRun(p.stages); len(plans) > 1 && len(run) > 0 {
			var err error
			if leads[i], err = newSegment(run, p.Name+"/seg0", opt); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	if len(plans) > 1 && !slices.Contains(leads, nil) {
		first := leads[0]
		for _, id := range slices.Clone(first.seq) {
			x := first.g.Node(id)
			if !isReadOnlyClassifier(x.Traits()) {
				break
			}
			at := runsOnce(leads, x)
			if at == nil {
				continue
			}
			for i, s := range leads {
				s.seq = slices.Delete(s.seq, at[i], at[i]+1)
			}
			shared := g.Add(x)
			g.MustConnect(prev, 0, shared)
			prev = shared
		}
	}
	tagged := len(plans) > 1 || plans[0].Tag != 0
	var tenants map[element.NodeID]string
	if tagged {
		tags := make([]uint16, len(plans))
		for i, p := range plans {
			tags[i] = p.Tag
		}
		demux := g.Add(element.NewTenantDemux("demux", tags))
		g.MustConnect(prev, 0, demux)
		prev, tenants = demux, map[element.NodeID]string{}
	}
	var syn []*SynthesisReport
	for i, p := range plans {
		name, dst := "", "dst"
		if tagged {
			name, dst = p.Name+"/", "dst/"+p.Name
		}
		first := g.Len()
		exit, port, rep, err := appendPlan(g, prev, i, p.stages, name, leads[i], opt)
		if err != nil {
			return nil, nil, nil, err
		}
		syn = append(syn, rep...)
		g.MustConnect(exit, port, g.Add(element.NewToDevice(dst)))
		for id := first; tagged && id < g.Len(); id++ {
			tenants[element.NodeID(id)] = p.Name
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("core: deployment graph invalid: %w", err)
	}
	return g, syn, tenants, nil
}

// runsOnce is the cross-tenant sharing rule: x runs once, on the mixed
// stream ahead of the demux, for every tenant when
//   - every tenant's first segment holds an element with its signature;
//   - x is a read-only classifier that keeps no per-flow state, so it
//     computes the same annotations and verdict for a packet whoever owns it;
//   - each tenant's own re-order rule (mayLead, the synthesizer's) may move
//     that element ahead of everything before it in the tenant's first
//     read-only run.
//
// It returns each tenant's index of that element in its sequence, or nil.
func runsOnce(leads []*segment, x element.Element) []int {
	if t := x.Traits(); t.Stateful || !isReadOnlyClassifier(t) {
		return nil
	}
	at := make([]int, len(leads))
	for i, s := range leads {
		at[i] = -1
		for k, id := range s.seq {
			e := s.g.Node(id)
			if !isReadOnlyClassifier(e.Traits()) {
				break // the end of the tenant's first read-only run
			}
			if e.Signature() == x.Signature() {
				if mayLead(s.g, e.Traits(), s.seq[:k]) {
					at[i] = k
				}
				break
			}
		}
		if at[i] < 0 {
			return nil
		}
	}
	return at
}

// leadRun is the plan's leading run of single-NF stages: the NFs of its
// first linear segment.
func leadRun(stages []Stage) []*nf.NF {
	var run []*nf.NF
	for _, st := range stages {
		if len(st.NFs) != 1 {
			break
		}
		run = append(run, st.NFs[0])
	}
	return run
}

// appendPlan imports one stage plan into g behind output port of prev and
// returns the plan's exit and its synthesis reports: consecutive single-NF
// stages become one synthesized linear segment; multi-NF stages become
// Duplicator → branches → XORMerge diamonds. Segments are named
// name+"seg<i>". lead, when set, is the plan's first segment, already built.
func appendPlan(g *element.Graph, prev element.NodeID, port int, stages []Stage, name string,
	lead *segment, opt Options) (element.NodeID, int, []*SynthesisReport, error) {
	var syn []*SynthesisReport
	i := 0
	segIdx := 0
	for i < len(stages) {
		if len(stages[i].NFs) == 1 {
			run := leadRun(stages[i:])
			s := lead
			if i > 0 || s == nil {
				var err error
				if s, err = newSegment(run, fmt.Sprintf("%sseg%d", name, segIdx), opt); err != nil {
					return 0, 0, nil, err
				}
			}
			if s.rep != nil {
				syn = append(syn, s.rep)
			}
			prev, port = s.join(g, prev, port)
			segIdx++
			i += len(run)
			continue
		}

		// Parallel stage. Branch writer flags feed the optimized
		// duplication/merge accounting: read-only branches share buffers.
		branches := stages[i].NFs
		writers := make([]bool, len(branches))
		for b, f := range branches {
			writers[b] = f.Profile.WritesHeader || f.Profile.WritesPayload ||
				f.Profile.AddRmBits
		}
		dup := NewDuplicatorProfiled(fmt.Sprintf("%sdup%d", name, segIdx), writers)
		dupID := g.Add(dup)
		merge := NewXORMerge(fmt.Sprintf("%smerge%d", name, segIdx), dup)
		mergeID := g.Add(merge)
		g.MustConnect(prev, port, dupID)
		for b, f := range branches {
			s, err := newSegment([]*nf.NF{f}, fmt.Sprintf("%sseg%d.b%d", name, segIdx, b), opt)
			if err != nil {
				return 0, 0, nil, err
			}
			if s.rep != nil {
				syn = append(syn, s.rep)
			}
			exit, _ := s.join(g, dupID, b)
			g.MustConnect(exit, 0, mergeID)
		}
		prev, port = mergeID, 0
		segIdx++
		i++
	}
	return prev, port, syn, nil
}

// segment is one linear run of NFs built into a scratch graph: seq is its
// nodes in chain order once synthesized, and moved the nodes of the runs
// the synthesizer re-ordered. The graph is rewired to seq when it joins.
type segment struct {
	g     *element.Graph
	seq   []element.NodeID
	moved map[element.NodeID]bool
	rep   *SynthesisReport // nil when synthesis is off
}

// newSegment builds run's linear element chain, names its instances
// prefix+"/<nf>#<k>", and synthesizes its sequence when opt.Synthesize is
// set.
func newSegment(run []*nf.NF, prefix string, opt Options) (*segment, error) {
	s := &segment{g: element.NewGraph()}
	var segPrev element.NodeID = -1
	for k, f := range run {
		e, x := f.Build(s.g, fmt.Sprintf("%s/%s#%d", prefix, f.Name, k))
		if segPrev >= 0 {
			s.g.MustConnect(segPrev, 0, e)
		}
		segPrev = x
	}
	var err error
	if s.seq, err = LinearSequence(s.g); err != nil {
		return nil, fmt.Errorf("core: segment %s: %w", prefix, err)
	}
	if opt.Synthesize {
		s.rep, s.seq, s.moved = synthesize(s.g, s.seq)
	}
	return s, nil
}

// join rewires the segment to its sequence, imports it into g behind output
// port of prev and returns its exit; an empty segment leaves (prev, port) as
// they were.
func (s *segment) join(g *element.Graph, prev element.NodeID, port int) (element.NodeID, int) {
	if len(s.seq) == 0 {
		return prev, port
	}
	seq := relink(s.g, s.seq, s.moved)
	off := g.Import(s.g)
	g.MustConnect(prev, port, seq[0]+off)
	return seq[len(seq)-1] + off, 0
}

// Simulate runs the deployment on the simulated platform.
func (d *Deployment) Simulate(batches []*netpkt.Batch, interarrivalNs float64) (*hetsim.Result, error) {
	sim, err := hetsim.NewSimulator(d.Platform, d.Costs, d.Graph, d.Assignment)
	if err != nil {
		return nil, err
	}
	return sim.Run(batches, interarrivalNs)
}
