package core

import (
	"fmt"

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
	// Delta is the offload-ratio granularity (default 0.1).
	Delta float64
	// BatchSize is the I/O batch size (default 64).
	BatchSize int
	// Costs overrides the platform cost table.
	Costs map[string]hetsim.ElemCost
}

// DefaultOptions enables every NFCompass technique.
func DefaultOptions() Options {
	return Options{
		Parallelize: true,
		Synthesize:  true,
		GTA:         true,
		Algorithm:   AlgoMultilevel,
		Delta:       DefaultDelta,
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
	Stages     []Stage
	Synthesis  []*SynthesisReport
	Alloc      *AllocReport
	Platform   hetsim.Platform
	Costs      map[string]hetsim.ElemCost

	opt Options // as Deploy resolved them; Build, place and NewAdaptor read them
}

// Build constructs one replica of the deployment's graph — the callback
// shape dataplane.NewSharded wants. It rebuilds the stage plan with fresh
// element instances and executes nothing; d, its Synthesis reports
// included, is left as it was. The shard index is unused: replicas are
// identical, node IDs included, so d.Assignment places every one of them.
func (d *Deployment) Build(shard int) (*element.Graph, error) {
	g, _, err := buildGraph(d.Stages, d.opt)
	return g, err
}

// Deploy runs the NFCompass pipeline on a sequential SFC: orchestrate
// (parallelize), synthesize, build the deployment graph, profile it with
// one functional pass over the sample traffic, and allocate tasks. sample is
// only read: every pass that consumes traffic runs on a copy of its own.
func Deploy(chain []*nf.NF, p hetsim.Platform, sample []*netpkt.Batch, opt Options) (*Deployment, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	if opt.BatchSize == 0 {
		opt.BatchSize = 64
	}
	if opt.Delta == 0 {
		opt.Delta = DefaultDelta
	}
	costs := opt.Costs
	if costs == nil {
		costs = hetsim.DefaultCosts()
	}

	sequential := make([]Stage, 0, len(chain))
	for _, f := range chain {
		sequential = append(sequential, Stage{NFs: []*nf.NF{f}})
	}
	stages := sequential
	if opt.Parallelize {
		stages = Parallelize(chain)
	}

	d, gbps, err := deployPlan(stages, p, sample, opt, costs)
	if err != nil {
		return nil, err
	}

	// Parallelization acceptance gate (paper §V-B-1: re-organization must
	// keep throughput "in a reasonable range", <10% reduction): when the
	// orchestrator found parallelism and sample traffic is available,
	// compare against the sequential plan and accept the parallel one
	// only if it costs at most 10% throughput (its payoff is latency).
	if opt.Parallelize && len(stages) < len(sequential) && len(sample) > 0 {
		seqD, seqGbps, err := deployPlan(sequential, p, sample, opt, costs)
		if err != nil {
			return nil, err
		}
		if !opt.GTA {
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

// deployPlan builds one stage plan into a full deployment (graph, profile,
// allocation) and returns it with the throughput its assignment measured on
// the sample (zero when GTA is off: nothing is validated).
func deployPlan(stages []Stage, p hetsim.Platform, sample []*netpkt.Batch, opt Options,
	costs map[string]hetsim.ElemCost) (*Deployment, float64, error) {
	g, syn, err := buildGraph(stages, opt)
	if err != nil {
		return nil, 0, err
	}
	d := &Deployment{Graph: g, Stages: stages, Synthesis: syn, Platform: p, Costs: costs, opt: opt}

	if !opt.GTA {
		d.Assignment = hetsim.Assignment{}
		return d, 0, nil
	}
	if len(sample) == 0 {
		return nil, 0, fmt.Errorf("core: GTA requires sample traffic")
	}

	// The plan's one pass over its own sample traffic is the profile:
	// content-dependent element costs (ACL probes, DFA walks) are the real
	// ones, on the traffic each element sees in the chain.
	ps, err := execute(g, p, costs, cloneBatches(sample))
	if err != nil {
		return nil, 0, fmt.Errorf("core: traffic sampling: %w", err)
	}
	gbps, err := d.place(ps)
	return d, gbps, err
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
// weights come from that trace too. place returns the winner's Gbps (the
// gate's figure and the decision journal's measured-cost column); on error
// the deployment keeps the placement it had.
func (d *Deployment) place(ps *pass) (float64, error) {
	model, rep, err := Allocate(d.Graph, ps.dict, ps.in, d.Platform, d.Costs, d.opt.BatchSize, d.opt.Delta, d.opt.Algorithm)
	if err != nil {
		return 0, fmt.Errorf("core: allocation: %w", err)
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
			return 0, fmt.Errorf("core: assignment validation: %w", err)
		}
		// Strict >: the first of equal candidates stays.
		if g := sim.Price(ps.trace).Throughput.Gbps(); g > bestGbps {
			best, bestGbps = i, g
		}
	}
	rep.Selected = candidates[best].name
	d.Assignment, d.Alloc = candidates[best].a, rep
	return bestGbps, nil
}

// buildGraph assembles the deployment element graph from the stage plan:
// consecutive single-NF stages become one synthesized linear segment;
// multi-NF stages become Duplicator → branches → XORMerge diamonds. It
// returns the graph with one synthesis report per synthesized segment.
func buildGraph(stages []Stage, opt Options) (*element.Graph, []*SynthesisReport, error) {
	g := element.NewGraph()
	var syn []*SynthesisReport
	src := g.Add(element.NewFromDevice("src"))
	prev := src

	i := 0
	segIdx := 0
	for i < len(stages) {
		if len(stages[i].NFs) == 1 {
			// Collect the maximal run of sequential stages.
			j := i
			var run []*nf.NF
			for j < len(stages) && len(stages[j].NFs) == 1 {
				run = append(run, stages[j].NFs[0])
				j++
			}
			entry, exit, rep, err := importSegment(g, run, fmt.Sprintf("seg%d", segIdx), opt)
			if err != nil {
				return nil, nil, err
			}
			if rep != nil {
				syn = append(syn, rep)
			}
			g.MustConnect(prev, 0, entry)
			prev = exit
			segIdx++
			i = j
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
		dup := NewDuplicatorProfiled(fmt.Sprintf("dup%d", segIdx), writers)
		dupID := g.Add(dup)
		merge := NewXORMerge(fmt.Sprintf("merge%d", segIdx), dup)
		mergeID := g.Add(merge)
		g.MustConnect(prev, 0, dupID)
		for b, f := range branches {
			entry, exit, rep, err := importSegment(g, []*nf.NF{f},
				fmt.Sprintf("seg%d.b%d", segIdx, b), opt)
			if err != nil {
				return nil, nil, err
			}
			if rep != nil {
				syn = append(syn, rep)
			}
			g.MustConnect(dupID, b, entry)
			g.MustConnect(exit, 0, mergeID)
		}
		prev = mergeID
		segIdx++
		i++
	}

	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(prev, 0, dst)
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: deployment graph invalid: %w", err)
	}
	return g, syn, nil
}

// importSegment builds the linear element chain of a run of NFs in a
// scratch graph, optionally synthesizes it, and imports it into g,
// returning the (post-import) entry and exit nodes and the synthesis report
// (nil when synthesis is off).
func importSegment(g *element.Graph, run []*nf.NF, prefix string,
	opt Options) (entry, exit element.NodeID, rep *SynthesisReport, err error) {
	seg := element.NewGraph()
	var segPrev element.NodeID = -1
	for k, f := range run {
		e, x := f.Build(seg, fmt.Sprintf("%s/%s#%d", prefix, f.Name, k))
		if segPrev >= 0 {
			seg.MustConnect(segPrev, 0, e)
		}
		segPrev = x
	}
	if opt.Synthesize {
		if rep, err = Synthesize(seg); err != nil {
			return 0, 0, nil, fmt.Errorf("core: synthesize %s: %w", prefix, err)
		}
	}
	seq, err := linearSequence(seg)
	if err != nil {
		return 0, 0, nil, err
	}
	off := g.Import(seg)
	return seq[0] + off, seq[len(seq)-1] + off, rep, nil
}

// Simulate runs the deployment on the simulated platform.
func (d *Deployment) Simulate(batches []*netpkt.Batch, interarrivalNs float64) (*hetsim.Result, error) {
	sim, err := hetsim.NewSimulator(d.Platform, d.Costs, d.Graph, d.Assignment)
	if err != nil {
		return nil, err
	}
	return sim.Run(batches, interarrivalNs)
}
