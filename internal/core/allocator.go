package core

import (
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/graph"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/profile"
)

// Algorithm selects the task allocator's partitioning strategy.
type Algorithm int

// Partitioning algorithms (paper §IV-C-3).
const (
	// AlgoMultilevel is the modified Kernighan–Lin over a METIS-like
	// multilevel scheme — the paper's primary partitioner.
	AlgoMultilevel Algorithm = iota
	// AlgoKL is the flat modified-KL refinement.
	AlgoKL
	// AlgoAgglomerative is the light-weight O(k log k) seed-based
	// clustering for very large/fast-changing systems.
	AlgoAgglomerative
	// AlgoStone is the max-flow/min-cut optimal sum-cost assignment
	// (the MFMC model the paper cites; no load balancing).
	AlgoStone
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoMultilevel:
		return "multilevel-KL"
	case AlgoKL:
		return "KL"
	case AlgoAgglomerative:
		return "agglomerative"
	case AlgoStone:
		return "stone-mincut"
	default:
		return "unknown"
	}
}

// AllocReport summarizes a GTA run.
type AllocReport struct {
	Algorithm Algorithm
	// Cost is the partition objective (max side load + cut), CutNs the
	// communication term, CPULoadNs/GPULoadNs the per-side loads — all
	// in ns per batch.
	Cost, CutNs          float64
	CPULoadNs, GPULoadNs float64
	// Instances is the expanded graph size.
	Instances int
	// OffloadByElement maps element names to their chosen GPU ratio.
	OffloadByElement map[string]float64
	// Selected names the candidate that won the sample-driven validation
	// (empty when validation did not run), and Gbps is its throughput
	// priced on the sample's trace.
	Selected string
	Gbps     float64
}

// Allocate runs graph-partition-based task allocation (GTA) on a deployed
// element graph: expand offloadable elements into δ-granular virtual
// instances, weight them with profiled costs and sampled intensities, and
// partition between CPU and GPU.
func Allocate(g *element.Graph, dict *profile.Dictionary, in *profile.Intensities,
	p hetsim.Platform, costs map[string]hetsim.ElemCost,
	batchSize int, delta float64, algo Algorithm) (hetsim.Assignment, *AllocReport, error) {

	ex, err := Expand(g, dict, in, p, costs, batchSize, delta)
	if err != nil {
		return nil, nil, err
	}

	var part graph.Partition
	var cost float64
	switch algo {
	case AlgoMultilevel:
		part, cost = graph.PartitionMultilevel(ex.W)
	case AlgoKL:
		part, cost = graph.PartitionKL(ex.W)
	case AlgoAgglomerative:
		cpuSeeds, gpuSeeds := ex.seeds()
		part, cost = graph.PartitionAgglomerative(ex.W, cpuSeeds, gpuSeeds, 0.65)
		// The paper pairs the light-weight clustering with dynamic task
		// adaption; one refinement pass plays that role.
		cost = graph.Refine(ex.W, part, 2)
	case AlgoStone:
		part = graph.StoneAssign(ex.W)
		cost = ex.W.Cost(part)
	default:
		return nil, nil, fmt.Errorf("core: unknown algorithm %d", algo)
	}

	cpu, gpu := ex.W.Loads(part)
	rep := &AllocReport{
		Algorithm: algo,
		Cost:      cost,
		CutNs:     ex.W.CutWeight(part),
		CPULoadNs: cpu, GPULoadNs: gpu,
		Instances:        ex.W.Len(),
		OffloadByElement: make(map[string]float64),
	}
	for id := range ex.instances {
		frac := ex.GPUFractionOf(part, element.NodeID(id))
		if frac > 0 {
			rep.OffloadByElement[g.Node(id).Name()] = frac
		}
	}
	return ex.ToAssignment(part), rep, nil
}

// seeds picks the agglomerative algorithm's starting vertices: the
// heaviest CPU-leaning instance and the heaviest GPU-leaning instance
// ("we select a random GPU element and a CPU element in each SFC as the
// seed vertices"; heaviest-first is the deterministic stand-in).
func (ex *Expansion) seeds() (cpuSeeds, gpuSeeds []int) {
	bestCPU, bestGPU := -1, -1
	var bestCPUGain, bestGPUGain float64
	for v := 0; v < ex.W.Len(); v++ {
		if ex.W.Pinned(v) != nil {
			continue
		}
		cpuW := ex.W.NodeWeight(v, graph.CPU)
		gpuW := ex.W.NodeWeight(v, graph.GPU)
		if gain := cpuW - gpuW; gain > bestGPUGain || bestGPU == -1 {
			bestGPU, bestGPUGain = v, gain
		}
		if gain := gpuW - cpuW; gain > bestCPUGain || bestCPU == -1 {
			bestCPU, bestCPUGain = v, gain
		}
	}
	// Pinned CPU nodes (sources, sinks) always seed the CPU side.
	for v := 0; v < ex.W.Len(); v++ {
		if pin := ex.W.Pinned(v); pin != nil && *pin == graph.CPU {
			cpuSeeds = append(cpuSeeds, v)
			break
		}
	}
	if bestCPU >= 0 {
		cpuSeeds = append(cpuSeeds, bestCPU)
	}
	if bestGPU >= 0 {
		gpuSeeds = append(gpuSeeds, bestGPU)
	}
	return cpuSeeds, gpuSeeds
}
