// Package hetsim is the deterministic discrete-event simulator of the
// paper's heterogeneous COTS server (Table I: 4-socket Xeon E7 + 2× NVIDIA
// Titan X). It substitutes for real CUDA hardware (see DESIGN.md §2):
// element graphs execute *functionally* (real Go packet processing) while
// the simulator charges calibrated time costs to CPU cores, GPU devices,
// and PCIe links, reproducing the paper's characterized behaviours —
// batch-split overheads (Fig. 5), offload-ratio response (Fig. 6),
// aggregated offloading overheads vs chain length (Fig. 7), batch-size and
// traffic-pattern sensitivity (Fig. 8a–d), and co-run interference
// (Fig. 8e).
//
// A run has two halves (sim.go). Simulator.Execute runs the elements once
// and records a Trace — per (node, batch) visit, what pricing reads, plus
// the executor's packet counts (Trace.Counts); Simulator.Price replays a
// trace under an Assignment without touching a packet. Run is
// Price(Execute(…)); core.Deploy executes a plan once and takes its traffic
// intensities and every candidate placement's price from that trace.
package hetsim

// Platform describes the simulated server.
type Platform struct {
	// CPUCores is the number of worker cores available to NF processing.
	CPUCores int
	// CPUHz is the core clock in cycles/second.
	CPUHz float64
	// LLCBytes is the last-level cache capacity relevant to NF tables.
	LLCBytes float64
	// MemAccessCycles is the average stall cost of a table access that
	// misses in cache.
	MemAccessCycles float64
	// ContentionSlope scales how much cache oversubscription inflates
	// memory-bound time (co-run interference strength).
	ContentionSlope float64

	// GPUs is the number of GPU devices.
	GPUs int
	// GPUParallelism is the number of packets a device processes
	// concurrently (persistent-kernel lanes).
	GPUParallelism float64
	// GPUHz is the effective per-lane clock.
	GPUHz float64
	// KernelLaunchNs is the launch+teardown overhead charged per kernel
	// invocation without persistent kernels.
	KernelLaunchNs float64
	// PersistentKernel switches to the persistent-kernel design the
	// paper adopts for NFCompass (§IV: "keep a portion of GPU threads
	// continuously running").
	PersistentKernel bool
	// PersistentLaunchNs is the per-batch handoff cost with persistent
	// kernels (doorbell write + queue entry).
	PersistentLaunchNs float64
	// CtxSwitchNs is charged per kernel when multiple NF kinds share the
	// device (co-run kernel-switch interference, §III-C).
	CtxSwitchNs float64

	// H2DBytesPerNs / D2HBytesPerNs are PCIe copy bandwidths.
	H2DBytesPerNs float64
	D2HBytesPerNs float64
	// PCIeLatencyNs is the fixed per-transfer latency.
	PCIeLatencyNs float64

	// SplitPerPacketNs and SplitPerBatchNs price batch re-organization
	// at element branches (Fig. 5): per-packet memory moves plus
	// per-sub-batch management.
	SplitPerPacketNs float64
	SplitPerBatchNs  float64

	// ProcessFootprint is the per-NF-process cache working set beyond
	// its lookup tables (packet buffers, descriptor rings, stacks); it
	// contributes to LLC pressure for the resident process and for each
	// co-runner.
	ProcessFootprint float64
}

// DefaultPlatform models the paper's testbed at the scale the runtime
// uses: 12 NF worker cores at 1.9 GHz (half the 24 physical cores; the
// rest serve I/O threads), 12 MB LLC per socket, and two Titan-X-class
// GPUs. Timing constants are calibrated against the paper's own
// characterization anchors (see DESIGN.md §5).
func DefaultPlatform() Platform {
	return Platform{
		CPUCores:        12,
		CPUHz:           1.9e9,
		LLCBytes:        12 << 20,
		MemAccessCycles: 55,
		ContentionSlope: 1.2,

		GPUs:               2,
		GPUParallelism:     2048,
		GPUHz:              1.0e9,
		KernelLaunchNs:     3500,
		PersistentKernel:   false,
		PersistentLaunchNs: 1500,
		CtxSwitchNs:        9000,

		H2DBytesPerNs: 10.0, // ~10 GB/s effective PCIe 3.0 x16
		D2HBytesPerNs: 10.0,
		PCIeLatencyNs: 1200,

		SplitPerPacketNs: 25,
		SplitPerBatchNs:  200,

		ProcessFootprint: 6 << 20,
	}
}

// ElemCost is the calibrated cost table entry for one element kind.
type ElemCost struct {
	// CPU per-packet and per-byte compute cycles.
	CPUCyclesPerPkt  float64
	CPUCyclesPerByte float64
	// MemAccessPerPkt/Byte model table lookups when the element does not
	// expose an exact probe counter (see MemProber).
	MemAccessPerPkt  float64
	MemAccessPerByte float64
	// GPU per-packet and per-byte cycles (per parallel lane).
	GPUCyclesPerPkt  float64
	GPUCyclesPerByte float64
	// Divergence >= 1 inflates GPU time for control-flow-divergent
	// elements (§III-B-1-a).
	Divergence float64
	// FootprintBytes is the table working set held in cache (DFA tables,
	// tries, classification trees).
	FootprintBytes float64
	// MemIntensity in [0,1] is the fraction of CPU time that is
	// memory-bound and therefore inflated by cache contention.
	MemIntensity float64
	// BatchKnee is the CPU batch size beyond which per-packet cost grows
	// (working set exceeds cache; Fig. 8d shows DPI's knee at 256).
	// Zero disables the knee.
	BatchKnee int
	// KneeSlope scales the super-knee growth.
	KneeSlope float64
}

// DefaultCosts returns the per-kind cost table. Entries are calibrated so
// that relative behaviours match the paper's characterization: IPv4 is
// cheap and CPU-friendly; IPsec is compute-heavy with GPU capacity ≈2.3×
// the CPU pool (Fig. 6 optimum at 70% offload); DPI is memory-intensive
// with a CPU batch knee at 256 and strong co-run sensitivity; classifiers
// diverge on GPU.
func DefaultCosts() map[string]ElemCost {
	return map[string]ElemCost{
		"FromDevice": {CPUCyclesPerPkt: 40},
		"ToDevice":   {CPUCyclesPerPkt: 40},
		"CheckIPHeader": {
			CPUCyclesPerPkt: 90, GPUCyclesPerPkt: 60,
			Divergence: 1.1, MemIntensity: 0.1, FootprintBytes: 4 << 10,
		},
		"Classifier": {
			CPUCyclesPerPkt: 140, MemAccessPerPkt: 2,
			GPUCyclesPerPkt: 80, Divergence: 1.8,
			MemIntensity: 0.3, FootprintBytes: 64 << 10,
		},
		"IPLookup": {
			CPUCyclesPerPkt: 110, // plus exact probe counts (1-2 accesses)
			GPUCyclesPerPkt: 40, Divergence: 1.05,
			MemIntensity: 0.7, FootprintBytes: 4 << 20,
			BatchKnee: 0,
		},
		"V6Lookup": {
			CPUCyclesPerPkt: 260, // plus up-to-7 probe accesses
			GPUCyclesPerPkt: 90, Divergence: 1.15,
			MemIntensity: 0.7, FootprintBytes: 6 << 20,
		},
		"DecTTL": {
			CPUCyclesPerPkt: 60, GPUCyclesPerPkt: 30,
			Divergence: 1.0, MemIntensity: 0.05, FootprintBytes: 1 << 10,
		},
		"EtherEncap": {
			CPUCyclesPerPkt: 50, GPUCyclesPerPkt: 25,
			MemIntensity: 0.05, FootprintBytes: 1 << 10, Divergence: 1,
		},
		"Paint": {CPUCyclesPerPkt: 25, GPUCyclesPerPkt: 15, Divergence: 1},
		"Tee":   {CPUCyclesPerPkt: 120, CPUCyclesPerByte: 0.6}, // packet copy
		// SFC-parallelization plumbing: the "packet copying at the start
		// of SFC branch and packet merging at the end" cost of §V-B-2.
		// Both elements report their copied/diffed cache lines exactly
		// (MemProber), so read-only branches — which the optimized
		// memory-management scheme shares rather than copies — cost
		// almost nothing.
		"Duplicator": {CPUCyclesPerPkt: 60, MemIntensity: 0.15},
		"XORMerge":   {CPUCyclesPerPkt: 60, MemIntensity: 0.2},
		"Counter":    {CPUCyclesPerPkt: 30, GPUCyclesPerPkt: 15, Divergence: 1},

		// Multi-tenant fan-out: reads the tag annotation, splits the batch.
		"TenantDemux": {CPUCyclesPerPkt: 25, Divergence: 1},
		"TCPReassembly": {
			// Per-flow state lookups plus buffering bookkeeping; CPU-only
			// (order restoration is the host-side completion-queue work).
			CPUCyclesPerPkt: 160, MemAccessPerPkt: 3,
			MemIntensity: 0.5, FootprintBytes: 4 << 20,
		},
		"Discard": {CPUCyclesPerPkt: 20},
		"ACL": {
			// Per-packet cost dominated by exact classification-tree
			// probe counts (MemProber); base covers key extraction.
			CPUCyclesPerPkt: 180, GPUCyclesPerPkt: 110, Divergence: 1.6,
			MemIntensity: 0.15, FootprintBytes: 2 << 20,
		},
		"AhoCorasick": {
			// DFA walk: per-byte work plus exact deep-state accesses.
			CPUCyclesPerPkt: 220, CPUCyclesPerByte: 2.2,
			GPUCyclesPerPkt: 70, GPUCyclesPerByte: 0.45,
			Divergence: 1.25, MemIntensity: 0.85,
			FootprintBytes: 10 << 20, BatchKnee: 256, KneeSlope: 0.8,
		},
		"RegexDFA": {
			CPUCyclesPerPkt: 160, CPUCyclesPerByte: 1.8,
			GPUCyclesPerPkt: 60, GPUCyclesPerByte: 0.4,
			Divergence: 1.2, MemIntensity: 0.8,
			FootprintBytes: 6 << 20, BatchKnee: 256, KneeSlope: 0.6,
		},
		"IPsecSeal": {
			// AES-128-CTR + HMAC-SHA1: ~28 cycles/byte on the CPU (the
			// serial AES+SHA1 chain limits AES-NI's benefit); GPU lanes
			// are slower per byte but 2048-wide.
			CPUCyclesPerPkt: 480, CPUCyclesPerByte: 38, MemAccessPerByte: 0.1,
			GPUCyclesPerPkt: 200, GPUCyclesPerByte: 6.5,
			Divergence: 1.02, MemIntensity: 0.25, FootprintBytes: 256 << 10,
		},
		"NATRewrite": {
			CPUCyclesPerPkt: 150, MemAccessPerPkt: 2,
			GPUCyclesPerPkt: 90, Divergence: 1.3,
			MemIntensity: 0.4, FootprintBytes: 1 << 20,
		},
		"LBHash": {
			CPUCyclesPerPkt: 70, GPUCyclesPerPkt: 30,
			Divergence: 1.05, MemIntensity: 0.15, FootprintBytes: 256 << 10,
		},
		"PayloadRewrite": {
			CPUCyclesPerPkt: 90, CPUCyclesPerByte: 0.4,
			GPUCyclesPerPkt: 45, GPUCyclesPerByte: 0.2,
			Divergence: 1.1, MemIntensity: 0.3, FootprintBytes: 512 << 10,
		},
		"WANCompress": {
			CPUCyclesPerPkt: 300, CPUCyclesPerByte: 3.5,
			GPUCyclesPerPkt: 150, GPUCyclesPerByte: 1.4,
			Divergence: 1.5, MemIntensity: 0.6, FootprintBytes: 8 << 20,
		},
	}
}

// costFor returns the cost entry for kind, falling back to a conservative
// default for unknown kinds.
func costFor(costs map[string]ElemCost, kind string) ElemCost {
	if c, ok := costs[kind]; ok {
		return c
	}
	return ElemCost{
		CPUCyclesPerPkt: 200, CPUCyclesPerByte: 1,
		GPUCyclesPerPkt: 100, GPUCyclesPerByte: 0.5,
		Divergence: 1.2, MemIntensity: 0.5, FootprintBytes: 1 << 20,
	}
}
