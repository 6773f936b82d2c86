// Package profile implements NFCompass's two-source profiling (paper
// §IV-C-2): an *offline* dictionary of per-element processing costs on CPU
// and GPU measured across packet sizes and batch sizes (OfflineProfile, each
// kind alone in a fragment graph), and a *runtime* profiler that reads one
// functional pass of the deployment's own graph over its sample traffic, a
// hetsim.Trace. From that trace the runtime side derives per-edge
// intensities and per-node utilizations (IntensitiesOf) and the per-kind
// dictionary the task allocator weighs its partitioning graph with
// (DictionaryOf): each element is priced on the traffic it sees in the
// chain — ciphertext behind an IPsec gateway, not the raw sample — under the
// chain's own cache contention. The offline dictionary is what
// `nfbench micro` reports.
package profile

import (
	"fmt"
	"sort"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// Entry is the profiled cost of one element kind at one packet size.
type Entry struct {
	// CPUNsPerPkt is the measured CPU time per packet.
	CPUNsPerPkt float64
	// GPUNsPerPkt is the marginal GPU time per packet (kernel + copy,
	// excluding the fixed per-batch part).
	GPUNsPerPkt float64
	// GPUFixedNsPerBatch is the fixed per-kernel overhead (launch +
	// PCIe latency).
	GPUFixedNsPerBatch float64
	// TransferBytesPerPkt is the PCIe payload per packet when offloaded.
	TransferBytesPerPkt float64
}

// key buckets dictionary entries by kind and packet size.
type key struct {
	kind    string
	pktSize int
}

// Dictionary is the profiling store, "indexed by vertex ID and edge ID" in
// the paper; here it is keyed by element kind + packet-size bucket, with
// the graph-specific indexing done by the allocator.
type Dictionary struct {
	entries map[key]Entry
	sizes   []int
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{entries: make(map[key]Entry)}
}

// Put records an entry.
func (d *Dictionary) Put(kind string, pktSize int, e Entry) {
	k := key{kind, pktSize}
	if _, exists := d.entries[k]; !exists {
		d.sizes = append(d.sizes, pktSize)
		sort.Ints(d.sizes)
	}
	d.entries[k] = e
}

// Lookup returns the entry for kind at the nearest profiled packet size.
func (d *Dictionary) Lookup(kind string, pktSize int) (Entry, error) {
	if len(d.sizes) == 0 {
		return Entry{}, fmt.Errorf("profile: empty dictionary")
	}
	bestSize, bestDist := d.sizes[0], 1<<30
	for _, s := range d.sizes {
		dist := s - pktSize
		if dist < 0 {
			dist = -dist
		}
		if _, ok := d.entries[key{kind, s}]; ok && dist < bestDist {
			bestSize, bestDist = s, dist
		}
	}
	e, ok := d.entries[key{kind, bestSize}]
	if !ok {
		return Entry{}, fmt.Errorf("profile: kind %q not profiled", kind)
	}
	return e, nil
}

// Kinds returns the distinct kinds profiled.
func (d *Dictionary) Kinds() []string {
	seen := map[string]bool{}
	var out []string
	for k := range d.entries {
		if !seen[k.kind] {
			seen[k.kind] = true
			out = append(out, k.kind)
		}
	}
	sort.Strings(out)
	return out
}

// OfflineConfig controls the offline profiling sweep.
type OfflineConfig struct {
	// PacketSizes to profile (default 64, 256, 1024, 1500).
	PacketSizes []int
	// BatchSize used during measurement (default 64).
	BatchSize int
	// Batches per measurement point (default 16).
	Batches int
	// Payload/MatchTokens configure DPI-relevant traffic content.
	Payload     traffic.PayloadProfile
	MatchTokens []string
	// Seed for deterministic measurement traffic.
	Seed int64
	// Sample, when set, replaces synthetic measurement traffic: elements
	// are profiled against clones of these batches, so content-dependent
	// costs (ACL tree probes, DFA walks) reflect the deployment's real
	// traffic. The dictionary then has a single size point (the sample's
	// mean packet size).
	Sample []*netpkt.Batch
}

// sampleMeanSize returns the mean packet size of the sample.
func (c *OfflineConfig) sampleMeanSize() int {
	pkts, bytes := 0, 0
	for _, b := range c.Sample {
		pkts += b.Len()
		bytes += b.Bytes()
	}
	if pkts == 0 {
		return 64
	}
	return bytes / pkts
}

func (c *OfflineConfig) defaults() {
	if len(c.PacketSizes) == 0 {
		c.PacketSizes = []int{64, 256, 1024, 1500}
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Batches == 0 {
		c.Batches = 16
	}
}

// buildFragment wires src -> fragment elements -> dst for an NF whose
// element we want to isolate. Offline profiling measures single elements,
// so build wraps exactly one element.
func buildFragment(el element.Element) *element.Graph {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("prof/src"))
	id := g.Add(el)
	g.MustConnect(src, 0, id)
	// Fan every output port into the sink.
	dst := g.Add(element.NewToDevice("prof/dst"))
	for port := 0; port < el.NumOutputs(); port++ {
		g.MustConnect(id, port, dst)
	}
	return g
}

// ProfileElement measures one element instance on the simulated platform
// at one packet size, returning its dictionary entry. The element runs the
// measurement traffic once, from Reset; the CPU and the GPU side are both
// priced from that trace (what an element computes does not depend on where
// it is placed), and the element is Reset again afterwards. cfg.Sample,
// when set, is that traffic and is consumed: OfflineProfile hands in a
// clone per element.
func ProfileElement(p hetsim.Platform, costs map[string]hetsim.ElemCost,
	el element.Element, cfg OfflineConfig, pktSize int) (Entry, error) {
	cfg.defaults()
	in := cfg.Sample
	if len(in) == 0 {
		in = traffic.NewGenerator(traffic.Config{
			Size: traffic.Fixed(pktSize), Seed: cfg.Seed,
			Payload: cfg.Payload, MatchTokens: cfg.MatchTokens,
		}).Batches(cfg.Batches, cfg.BatchSize)
	}
	reset := func() {
		if r, ok := el.(element.Resetter); ok {
			r.Reset()
		}
	}

	var entry Entry
	entry.TransferBytesPerPkt = float64(pktSize)

	reset()
	g := buildFragment(el)
	elNode := element.NodeID(1) // src=0, el=1, dst=2 by construction
	cpu, err := hetsim.NewSimulator(p, costs, g, nil)
	if err != nil {
		return entry, err
	}
	total := 0.0
	for _, b := range in {
		total += float64(b.Len())
	}
	trace, err := cpu.Execute(in, 0)
	if err != nil {
		return entry, err
	}

	// CPU side. Subtract the src/dst endpoint costs measured separately
	// below via the cost table directly (endpoints are pure CPU).
	res := cpu.Price(trace)
	endpoints := endpointNsPerPkt(p, costs)
	entry.CPUNsPerPkt = res.CPUBusyNs/total - endpoints

	// GPU side.
	gpu, err := hetsim.NewSimulator(p, costs, g,
		hetsim.Assignment{elNode: hetsim.Placement{Mode: hetsim.ModeGPU}})
	if err != nil {
		return entry, err
	}
	res2 := gpu.Price(trace)
	if res2.KernelLaunches > 0 {
		fixed := fixedKernelNs(p)
		entry.GPUFixedNsPerBatch = fixed
		marginal := (res2.GPUBusyNs - fixed*float64(res2.KernelLaunches)) / total
		// Exclude the per-byte PCIe copies: the partitioner charges data
		// movement on cut *edges*, so leaving it in the node weight
		// would double-count transfers and over-penalize offloading.
		marginal -= float64(pktSize)/p.H2DBytesPerNs + float64(pktSize)/p.D2HBytesPerNs
		if marginal < 0 {
			marginal = 0
		}
		entry.GPUNsPerPkt = marginal
	}
	reset()
	return entry, nil
}

// endpointNsPerPkt prices the FromDevice+ToDevice wrapping, which
// ProfileElement removes from element measurements.
func endpointNsPerPkt(p hetsim.Platform, costs map[string]hetsim.ElemCost) float64 {
	if costs == nil {
		costs = hetsim.DefaultCosts()
	}
	cycles := 0.0
	for _, kind := range []string{"FromDevice", "ToDevice"} {
		if c, ok := costs[kind]; ok {
			cycles += c.CPUCyclesPerPkt
		}
	}
	return cycles / p.CPUHz * 1e9
}

// fixedKernelNs is the per-kernel fixed overhead on the platform.
func fixedKernelNs(p hetsim.Platform) float64 {
	launch := p.KernelLaunchNs
	if p.PersistentKernel {
		launch = p.PersistentLaunchNs
	}
	return launch + 2*p.PCIeLatencyNs
}

// OfflineProfile profiles every distinct element kind in the graph across
// the configured packet sizes, returning the dictionary. Elements are
// profiled as live instances so their tables (tries, DFAs, ACL trees) are
// the real ones, each alone in a fragment graph; with cfg.Sample set, each
// kind runs on a clone of the sample of its own.
func OfflineProfile(p hetsim.Platform, costs map[string]hetsim.ElemCost,
	g *element.Graph, cfg OfflineConfig) (*Dictionary, error) {
	cfg.defaults()
	sizes := cfg.PacketSizes
	if len(cfg.Sample) > 0 {
		// Sample-driven profiling measures at the observed traffic's own
		// mean size; a size sweep would need synthetic content.
		sizes = []int{cfg.sampleMeanSize()}
	}
	d := NewDictionary()
	seen := map[string]bool{}
	for i := 0; i < g.Len(); i++ {
		el := g.Node(element.NodeID(i))
		kind := el.Traits().Kind
		if kind == "FromDevice" || kind == "ToDevice" || seen[kind] {
			continue
		}
		seen[kind] = true
		for _, size := range sizes {
			one := cfg
			one.Sample = make([]*netpkt.Batch, len(cfg.Sample))
			for j, b := range cfg.Sample {
				one.Sample[j] = b.Clone()
			}
			e, err := ProfileElement(p, costs, el, one, size)
			if err != nil {
				return nil, fmt.Errorf("profile: %s at %dB: %w", kind, size, err)
			}
			d.Put(kind, size, e)
		}
	}
	return d, nil
}

// DictionaryOf is the runtime profiler's dictionary: one entry per element
// kind, priced from the visits a plan's one functional pass recorded — on
// the traffic each element sees in the chain, under the plan's own all-CPU
// contention (sim is the simulator that executed the trace). An entry is
// the kind's summed service over its live packets, at the injected mean
// packet size. As in ProfileElement, the GPU side leaves the launch to
// GPUFixedNsPerBatch and the PCIe copies to the edges. Endpoints, and
// kinds no live packet reached, get no entry.
func DictionaryOf(sim *hetsim.Simulator, t *hetsim.Trace) (*Dictionary, error) {
	_, _, pkts, bytes := t.Counts()
	if pkts == 0 {
		return nil, fmt.Errorf("profile: no sample packets")
	}
	size := bytes / pkts
	byKind := map[string]hetsim.NodeService{}
	for id, ns := range sim.ServiceByNode(t) {
		kind := sim.G.Node(element.NodeID(id)).Traits().Kind
		if kind == "FromDevice" || kind == "ToDevice" || ns.N == 0 {
			continue
		}
		sum := byKind[kind]
		sum.N += ns.N
		sum.CPUNs += ns.CPUNs
		sum.GPUNs += ns.GPUNs
		byKind[kind] = sum
	}
	d := NewDictionary()
	for kind, sum := range byKind {
		n := float64(sum.N)
		d.Put(kind, size, Entry{
			CPUNsPerPkt:         sum.CPUNs / n,
			GPUNsPerPkt:         sum.GPUNs / n,
			GPUFixedNsPerBatch:  fixedKernelNs(sim.P),
			TransferBytesPerPkt: float64(size),
		})
	}
	return d, nil
}

// Intensities are the runtime traffic statistics: the fraction of injected
// packets that visit each node and cross each edge (paper: "By collecting
// the packet flow distribution on each edge, we can obtain the
// time-dependent traffic intensities on each edge, and the utilization of
// each element").
type Intensities struct {
	Node map[element.NodeID]float64
	Edge map[element.EdgeKey]float64
	// AvgPktBytes is the mean live packet size observed.
	AvgPktBytes float64
}

// SampleIntensities runs sample batches, which it consumes, through the
// graph functionally (hetsim's Execute) and returns IntensitiesOf that pass.
func SampleIntensities(g *element.Graph, batches []*netpkt.Batch) (*Intensities, error) {
	sim, err := hetsim.NewSimulator(hetsim.DefaultPlatform(), nil, g, nil)
	if err != nil {
		return nil, err
	}
	t, err := sim.Execute(batches, 0)
	// Sampling consumed the sample batches; clear element state so the
	// graph is pristine for the real run.
	g.Reset()
	if err != nil {
		return nil, err
	}
	return IntensitiesOf(t)
}

// IntensitiesOf normalizes the per-node/per-edge packet counts of a
// functional pass by the packets it injected.
func IntensitiesOf(t *hetsim.Trace) (*Intensities, error) {
	nodes, edges, injected, bytes := t.Counts()
	if injected == 0 {
		return nil, fmt.Errorf("profile: no sample packets")
	}
	out := &Intensities{
		Node:        make(map[element.NodeID]float64, len(nodes)),
		Edge:        make(map[element.EdgeKey]float64, len(edges)),
		AvgPktBytes: float64(bytes) / float64(injected),
	}
	for id, n := range nodes {
		out.Node[id] = float64(n) / float64(injected)
	}
	for ek, n := range edges {
		out.Edge[ek] = float64(n) / float64(injected)
	}
	return out, nil
}
