// Package baseline implements the comparison systems of the paper's
// evaluation: CPU-only and GPU-only deployments, fixed offload ratios, a
// FastClick-like CPU batching framework, and an NBA-like per-NF adaptive
// offloader. All run the same functional element graphs on the same
// simulated platform as NFCompass, differing only in how they re-organize
// (they don't) and place (locally, not globally) the work — which is what
// the paper's comparisons isolate.
package baseline

import (
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
)

// System identifies a baseline deployment strategy.
type System int

// The baseline systems.
const (
	// CPUOnly runs the unmodified sequential chain on CPU cores.
	CPUOnly System = iota
	// GPUOnly offloads every offloadable element wholly to the GPU.
	GPUOnly
	// FixedRatio offloads the same fraction (fixedRatio, 0.7) of every
	// offloadable element ("a one-size-fits-all offload ratio").
	FixedRatio
	// FastClick models the FastClick baseline: an optimized CPU batch
	// processing framework — identical to CPUOnly in placement (its
	// batching I/O gains are inside the CPU cost calibration).
	FastClick
	// NBA models the NBA baseline: each NF independently picks its own
	// best offload ratio by local measurement, with no SFC
	// re-organization and no global (cross-NF) data-movement reasoning.
	NBA
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case CPUOnly:
		return "CPU-only"
	case GPUOnly:
		return "GPU-only"
	case FixedRatio:
		return "fixed-ratio"
	case FastClick:
		return "FastClick"
	case NBA:
		return "NBA"
	default:
		return "unknown"
	}
}

// Deployment is a prepared baseline: graph + placement.
type Deployment struct {
	System     System
	Graph      *element.Graph
	Assignment hetsim.Assignment
	// NBARatios records NBA's per-NF choices for reporting.
	NBARatios map[string]float64
}

const (
	// fixedRatio is the FixedRatio GPU fraction, the paper's "70% offload
	// to GPU" reference point.
	fixedRatio = 0.7
	// calibrationBatches is how many calibration batches NBA's local
	// search simulates per candidate ratio.
	calibrationBatches = 20
)

// Build constructs the baseline deployment for a sequential chain.
// calibration supplies sample traffic for NBA's local ratio search (its
// batches are consumed); other systems ignore it.
func Build(sys System, chain []*nf.NF, p hetsim.Platform,
	calibration func(n int) []*netpkt.Batch) (*Deployment, error) {
	g, _, _ := nf.BuildChain(chain)
	d := &Deployment{System: sys, Graph: g}
	switch sys {
	case CPUOnly, FastClick:
		d.Assignment = hetsim.Assignment{}
	case GPUOnly:
		d.Assignment = hetsim.AllGPU(g)
	case FixedRatio:
		d.Assignment = hetsim.UniformSplit(g, fixedRatio)
	case NBA:
		if calibration == nil {
			return nil, fmt.Errorf("baseline: NBA needs calibration traffic")
		}
		a, ratios, err := nbaAssign(chain, p, calibration)
		if err != nil {
			return nil, err
		}
		// nbaAssign computed per-NF ratios on standalone graphs; apply
		// them to the chain graph's elements by NF position.
		d.Assignment = applyPerNF(g, chain, a)
		d.NBARatios = ratios
	default:
		return nil, fmt.Errorf("baseline: unknown system %d", sys)
	}
	return d, nil
}

// nbaAssign finds, for each NF independently, the offload ratio (on the
// δ=10% grid) that maximizes that NF's standalone throughput. This is the
// locally-optimal, globally-oblivious behaviour the paper contrasts GTA
// against: it ignores cross-NF transfers and whole-chain balance.
func nbaAssign(chain []*nf.NF, p hetsim.Platform,
	calibration func(n int) []*netpkt.Batch) (map[string]float64, map[string]float64, error) {
	ratios := make(map[string]float64, len(chain))
	for _, f := range chain {
		best, bestGbps := 0.0, -1.0
		for r := 0.0; r <= 1.0001; r += 0.1 {
			g, _, _ := nf.BuildChain([]*nf.NF{f})
			sim, err := hetsim.NewSimulator(p, nil, g, hetsim.UniformSplit(g, r))
			if err != nil {
				return nil, nil, err
			}
			res, err := sim.Run(calibration(calibrationBatches), 0)
			if err != nil {
				return nil, nil, err
			}
			if gbps := res.Throughput.Gbps(); gbps > bestGbps {
				best, bestGbps = r, gbps
			}
		}
		ratios[f.Name] = best
	}
	return ratios, ratios, nil
}

// applyPerNF maps per-NF ratios onto the chain graph: every offloadable
// element belonging to an NF instance gets that NF's ratio. Elements are
// matched by the name prefix BuildChain assigns ("<nfname>#<idx>/...").
func applyPerNF(g *element.Graph, chain []*nf.NF, ratios map[string]float64) hetsim.Assignment {
	a := make(hetsim.Assignment)
	for i := 0; i < g.Len(); i++ {
		id := element.NodeID(i)
		el := g.Node(id)
		if !el.Traits().Offloadable {
			continue
		}
		r, ok := ratioForName(el.Name(), ratios)
		if !ok {
			continue
		}
		switch {
		case r <= 0:
			// CPU default.
		case r >= 1:
			a[id] = hetsim.Placement{Mode: hetsim.ModeGPU}
		default:
			a[id] = hetsim.Placement{Mode: hetsim.ModeSplit, GPUFraction: r}
		}
	}
	return a
}

// ratioForName resolves "nfname#idx/element" to the NF's ratio.
func ratioForName(name string, ratios map[string]float64) (float64, bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '#' {
			r, ok := ratios[name[:i]]
			return r, ok
		}
	}
	return 0, false
}

// Simulate runs the baseline deployment.
func (d *Deployment) Simulate(p hetsim.Platform, costs map[string]hetsim.ElemCost,
	batches []*netpkt.Batch, interarrivalNs float64) (*hetsim.Result, error) {
	sim, err := hetsim.NewSimulator(p, costs, d.Graph, d.Assignment)
	if err != nil {
		return nil, err
	}
	return sim.Run(batches, interarrivalNs)
}
