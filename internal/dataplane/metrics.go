package dataplane

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/stats"
)

// nodeMetrics is the per-element metric registry slot. Every field is an
// atomic: the writer is whichever goroutine executed the element — its own,
// or the head of the segment it is a member of (scheduler.go's book) — and
// Snapshot reads concurrently. Counters are cache-line padded so
// neighbouring elements' hot counters do not false-share.
type nodeMetrics struct {
	batches stats.Counter
	pktsIn  stats.Counter
	pktsOut stats.Counter
	drops   stats.Counter
	// sendWaitNs accumulates time spent blocked in downstream channel
	// sends — the back-pressure signal that locates the bottleneck stage.
	sendWaitNs stats.Counter
	// proc is the Process wall-time distribution of the observed batches
	// (flight.Observed); procPkts counts their live input packets, the
	// denominator for ns/pkt.
	proc     *stats.ConcurrentHistogram
	procPkts stats.Counter
}

// ElementStats is one element's row in a pipeline report.
type ElementStats struct {
	Node element.NodeID
	Name string
	Kind string
	// Batches is the number of Process calls; PktsIn/PktsOut are live
	// packets entering/leaving; Drops is max(0, in-out) per call summed.
	Batches, PktsIn, PktsOut, Drops uint64
	// SendWaitNs is the time the observed batches spent blocked on a full
	// downstream queue (uncontended sends cost nothing here) — a sample of
	// the same batches as Proc, so its ratio to Proc.Sum is the share of all
	// batches; growth under load means back-pressure from the next stage.
	SendWaitNs uint64
	// QueueLen is the element's inbox depth at snapshot time, QueueCap its
	// capacity.
	QueueLen, QueueCap int
	// Proc is the per-batch processing-time distribution in nanoseconds
	// over the observed batches (one ID in flight.Period()); ProcPkts is
	// their live input packet count.
	Proc     stats.HistSnapshot
	ProcPkts uint64
	// Placement is the element's resolved placement at snapshot time
	// ("cpu", "gpu0", "split1:0.40").
	Placement string
	// Tenant is the owning chain on a multi-tenant dataplane (empty for
	// single-tenant pipelines and for shared nodes). See Config.Tenants.
	Tenant string
}

// TenantTotals is one tenant's boundary accounting on a shared dataplane:
// what its chain was fed and what came out. The control plane fills these
// rows (it owns the tagged injection boundary); they merge across shard
// reports by tenant name.
type TenantTotals struct {
	Tenant      string
	InPackets   uint64
	OutPackets  uint64
	DropPackets uint64
}

// NsPerPkt returns the mean processing cost per live input packet over the
// timed batches.
func (e ElementStats) NsPerPkt() float64 {
	if e.ProcPkts == 0 {
		return 0
	}
	return e.Proc.Sum / float64(e.ProcPkts)
}

// EdgeStats is one graph edge's traffic in a pipeline report.
type EdgeStats struct {
	element.EdgeKey
	// Packets counts live packets sent across the edge.
	Packets uint64
}

// Report is a typed point-in-time snapshot of a running (or drained)
// pipeline: the live counterpart of the offline profiler's output.
type Report struct {
	Elements []ElementStats
	Edges    []EdgeStats
	// Pipeline-boundary totals (mirrors Stats).
	InBatches, OutBatches uint64
	InPackets, OutPackets uint64
	DropPackets, InBytes  uint64
	// ElapsedNs is time since pipeline construction, for rate derivation.
	ElapsedNs int64
	// MetricsEnabled records whether per-element instrumentation was on;
	// when false only boundary totals and queue depths are meaningful.
	MetricsEnabled bool
	// E2E is the per-batch inject→release latency distribution in
	// nanoseconds (empty when metrics are off). For sharded pipelines it is
	// the merge of the replicas' InjectShard→release measurements.
	E2E stats.HistSnapshot
	// Offload is the emulated GPU device backend's activity (all zeros for
	// a CPU-only assignment).
	Offload OffloadSnapshot
	// PerTenant carries per-chain boundary totals on a shared multi-tenant
	// dataplane (empty otherwise); the control plane stamps it from its
	// tagged injection/release counters.
	PerTenant []TenantTotals
}

// Snapshot captures per-element and per-edge statistics. It is safe to call
// while the pipeline runs (counters are atomic; the histogram snapshot is
// not a single consistent cut but every value is valid) and any time after
// New.
func (p *Pipeline) Snapshot() *Report {
	r := &Report{
		InBatches:      p.Stats.InBatches.Load(),
		OutBatches:     p.Stats.OutBatches.Load(),
		InPackets:      p.Stats.InPackets.Load(),
		OutPackets:     p.Stats.OutPackets.Load(),
		DropPackets:    p.Stats.DropPackets.Load(),
		InBytes:        p.Stats.InBytes.Load(),
		ElapsedNs:      p.clock().Nanoseconds(),
		MetricsEnabled: p.metrics != nil,
		E2E:            p.lat.snapshot(),
		Offload:        p.snapshotOffload(),
	}
	tbl := p.placements.Load()
	for i := 0; i < p.g.Len(); i++ {
		id := element.NodeID(i)
		el := p.g.Node(id)
		es := ElementStats{
			Node:      id,
			Name:      el.Name(),
			Kind:      el.Traits().Kind,
			QueueLen:  len(p.inbox[i]),
			QueueCap:  cap(p.inbox[i]),
			Placement: tbl.nodes[i].String(),
			Tenant:    p.cfg.Tenants[id],
		}
		if p.metrics != nil {
			m := &p.metrics[i]
			es.Batches = m.batches.Load()
			es.PktsIn = m.pktsIn.Load()
			es.PktsOut = m.pktsOut.Load()
			es.Drops = m.drops.Load()
			es.SendWaitNs = m.sendWaitNs.Load()
			es.Proc = m.proc.Snapshot()
			es.ProcPkts = m.procPkts.Load()
		}
		r.Elements = append(r.Elements, es)
	}
	if p.metrics != nil {
		for _, e := range p.g.Edges() {
			ek := element.EdgeKey{From: e.From, Port: e.Port, To: e.To}
			if c := p.edgeCtr[ek]; c != nil {
				r.Edges = append(r.Edges, EdgeStats{EdgeKey: ek, Packets: c.Load()})
			}
		}
		sort.Slice(r.Edges, func(i, j int) bool {
			a, b := r.Edges[i].EdgeKey, r.Edges[j].EdgeKey
			if a.From != b.From {
				return a.From < b.From
			}
			if a.Port != b.Port {
				return a.Port < b.Port
			}
			return a.To < b.To
		})
	}
	return r
}

// AggregateReports sums per-element and per-edge statistics across the
// reports of structurally identical pipelines (the shards of a
// ShardedPipeline): counters and histograms add, queue depths/capacities
// add, boundary totals add, elapsed time takes the maximum (the shards ran
// concurrently, not back to back). Reports must describe the same graph
// shape; element rows are matched by node ID.
func AggregateReports(reps []*Report) *Report {
	agg := &Report{}
	edges := make(map[element.EdgeKey]uint64)
	for _, r := range reps {
		if r == nil {
			continue
		}
		agg.InBatches += r.InBatches
		agg.OutBatches += r.OutBatches
		agg.InPackets += r.InPackets
		agg.OutPackets += r.OutPackets
		agg.DropPackets += r.DropPackets
		agg.InBytes += r.InBytes
		if r.ElapsedNs > agg.ElapsedNs {
			agg.ElapsedNs = r.ElapsedNs
		}
		agg.MetricsEnabled = agg.MetricsEnabled || r.MetricsEnabled
		agg.E2E = agg.E2E.Merge(r.E2E)
		agg.Offload.OffloadedBatches += r.Offload.OffloadedBatches
		agg.Offload.SplitBatches += r.Offload.SplitBatches
		agg.Offload.KernelLaunches += r.Offload.KernelLaunches
		agg.Offload.H2DBytes += r.Offload.H2DBytes
		agg.Offload.D2HBytes += r.Offload.D2HBytes
		agg.Offload.H2DTransfers += r.Offload.H2DTransfers
		agg.Offload.D2HTransfers += r.Offload.D2HTransfers
		agg.Offload.GPUBusyNs += r.Offload.GPUBusyNs
		agg.Offload.SplitCPUNs += r.Offload.SplitCPUNs
		agg.Offload.FusedSegments += r.Offload.FusedSegments
		agg.Offload.TransfersSaved += r.Offload.TransfersSaved
		agg.Offload.OverlapNs += r.Offload.OverlapNs
		agg.Offload.CompiledBatches += r.Offload.CompiledBatches
		agg.Offload.CompiledHopsSaved += r.Offload.CompiledHopsSaved
		agg.Offload.Swaps += r.Offload.Swaps
		agg.Offload.Devices += r.Offload.Devices
		if r.Offload.Epoch > agg.Offload.Epoch {
			agg.Offload.Epoch = r.Offload.Epoch
		}
		for _, d := range r.Offload.PerDevice {
			merged := false
			for i := range agg.Offload.PerDevice {
				if agg.Offload.PerDevice[i].Name == d.Name {
					agg.Offload.PerDevice[i].Batches += d.Batches
					agg.Offload.PerDevice[i].BusyNs += d.BusyNs
					merged = true
					break
				}
			}
			if !merged {
				agg.Offload.PerDevice = append(agg.Offload.PerDevice, d)
			}
		}
		for i, e := range r.Elements {
			if i >= len(agg.Elements) {
				agg.Elements = append(agg.Elements, e)
				continue
			}
			a := &agg.Elements[i]
			a.Batches += e.Batches
			a.PktsIn += e.PktsIn
			a.PktsOut += e.PktsOut
			a.Drops += e.Drops
			a.SendWaitNs += e.SendWaitNs
			a.QueueLen += e.QueueLen
			a.QueueCap += e.QueueCap
			a.Proc = a.Proc.Merge(e.Proc)
			a.ProcPkts += e.ProcPkts
		}
		for _, ed := range r.Edges {
			edges[ed.EdgeKey] += ed.Packets
		}
		for _, tt := range r.PerTenant {
			merged := false
			for i := range agg.PerTenant {
				if agg.PerTenant[i].Tenant == tt.Tenant {
					agg.PerTenant[i].InPackets += tt.InPackets
					agg.PerTenant[i].OutPackets += tt.OutPackets
					agg.PerTenant[i].DropPackets += tt.DropPackets
					merged = true
					break
				}
			}
			if !merged {
				agg.PerTenant = append(agg.PerTenant, tt)
			}
		}
	}
	for k, v := range edges {
		agg.Edges = append(agg.Edges, EdgeStats{EdgeKey: k, Packets: v})
	}
	sort.Slice(agg.Edges, func(i, j int) bool {
		a, b := agg.Edges[i].EdgeKey, agg.Edges[j].EdgeKey
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.To < b.To
	})
	return agg
}

// String renders the report as a fixed-width per-element table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline: in=%d/%d out=%d/%d drop=%d (batches/pkts) elapsed=%.1fms",
		r.InBatches, r.InPackets, r.OutBatches, r.OutPackets, r.DropPackets,
		float64(r.ElapsedNs)/1e6)
	if !r.MetricsEnabled {
		sb.WriteString("\n(per-element metrics disabled; set Config.Metrics)\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "; counts and e2e exact, ns and wait timed on 1 batch in %d\n", flight.Period())
	if r.E2E.Count > 0 {
		fmt.Fprintf(&sb, "e2e latency: n=%d p50=%.1fus p95=%.1fus p99=%.1fus p999=%.1fus max=%.1fus\n",
			r.E2E.Count, r.E2E.Percentile(50)/1e3, r.E2E.Percentile(95)/1e3,
			r.E2E.Percentile(99)/1e3, r.E2E.Percentile(99.9)/1e3, r.E2E.Max/1e3)
	}
	if o := r.Offload; o.OffloadedBatches > 0 || o.Swaps > 0 {
		fmt.Fprintf(&sb, "offload: dev=%d batches=%d (split %d) launches=%d h2d=%dB/%dx d2h=%dB/%dx gpu-busy=%.2fms split-cpu=%.2fms epoch=%d swaps=%d\n",
			o.Devices, o.OffloadedBatches, o.SplitBatches, o.KernelLaunches,
			o.H2DBytes, o.H2DTransfers, o.D2HBytes, o.D2HTransfers,
			float64(o.GPUBusyNs)/1e6, float64(o.SplitCPUNs)/1e6, o.Epoch, o.Swaps)
		if o.FusedSegments > 0 || o.OverlapNs > 0 {
			fmt.Fprintf(&sb, "fusion: segments=%d transfers-saved=%d overlap=%.2fms\n",
				o.FusedSegments, o.TransfersSaved, float64(o.OverlapNs)/1e6)
		}
		for _, d := range o.PerDevice {
			fmt.Fprintf(&sb, "  %s: batches=%d busy=%.2fms\n",
				d.Name, d.Batches, float64(d.BusyNs)/1e6)
		}
	}
	if o := r.Offload; o.CompiledBatches > 0 {
		fmt.Fprintf(&sb, "compiled: batches=%d hops-saved=%d\n",
			o.CompiledBatches, o.CompiledHopsSaved)
	}
	for _, tt := range r.PerTenant {
		fmt.Fprintf(&sb, "tenant %-12s in=%d out=%d drop=%d\n",
			tt.Tenant, tt.InPackets, tt.OutPackets, tt.DropPackets)
	}
	fmt.Fprintf(&sb, "%-3s %-22s %-14s %-12s %9s %9s %7s %6s %9s %9s %9s %9s\n",
		"id", "element", "kind", "place", "pkts-in", "pkts-out", "drops", "queue",
		"ns/pkt", "p50-ns", "p99-ns", "wait-ms")
	for _, e := range r.Elements {
		fmt.Fprintf(&sb, "%-3d %-22s %-14s %-12s %9d %9d %7d %3d/%-3d %9.0f %9.0f %9.0f %9.2f\n",
			e.Node, e.Name, e.Kind, e.Placement, e.PktsIn, e.PktsOut, e.Drops,
			e.QueueLen, e.QueueCap, e.NsPerPkt(),
			e.Proc.Percentile(50), e.Proc.Percentile(99),
			float64(e.SendWaitNs)/1e6)
	}
	for _, ed := range r.Edges {
		fmt.Fprintf(&sb, "edge %d[%d]->%d: %d pkts\n", ed.From, ed.Port, ed.To, ed.Packets)
	}
	return sb.String()
}

// WritePrometheus dumps the report in Prometheus text exposition format.
// Metric names are prefixed nfcompass_dataplane_.
func (r *Report) WritePrometheus(w io.Writer) {
	const p = "nfcompass_dataplane_"
	stats.PromHeader(w, p+"in_packets_total", "counter", "live packets injected")
	stats.PromCounter(w, p+"in_packets_total", nil, r.InPackets)
	stats.PromHeader(w, p+"out_packets_total", "counter", "live packets released at sinks")
	stats.PromCounter(w, p+"out_packets_total", nil, r.OutPackets)
	stats.PromHeader(w, p+"drop_packets_total", "counter", "packets dropped in the pipeline")
	stats.PromCounter(w, p+"drop_packets_total", nil, r.DropPackets)
	stats.PromHeader(w, p+"in_bytes_total", "counter", "live bytes injected")
	stats.PromCounter(w, p+"in_bytes_total", nil, r.InBytes)
	// End-to-end inject→release latency as summary-style quantiles (the SLO
	// surface) plus the full cumulative histogram for aggregation-friendly
	// scrapers.
	if r.E2E.Count > 0 {
		stats.PromHeader(w, "nfc_e2e_latency_ns", "summary",
			"per-batch inject-to-release latency in nanoseconds")
		stats.PromSummary(w, "nfc_e2e_latency_ns", nil, r.E2E,
			[]float64{0.5, 0.95, 0.99, 0.999})
		stats.PromHeader(w, p+"e2e_latency_ns", "histogram",
			"per-batch inject-to-release latency in nanoseconds")
		stats.PromHistogram(w, p+"e2e_latency_ns", nil, r.E2E)
	}
	// Offload metrics emit only when the device backend saw traffic, and
	// per-device series only for devices that processed batches — idle
	// devices would otherwise pollute every CPU-only scrape with zeros.
	if o := r.Offload; o.OffloadedBatches > 0 {
		stats.PromHeader(w, p+"offload_batches_total", "counter",
			"batches executed through the emulated device backend")
		stats.PromCounter(w, p+"offload_batches_total", nil, o.OffloadedBatches)
		stats.PromHeader(w, p+"offload_kernel_launches_total", "counter",
			"aggregated kernel launch groups")
		stats.PromCounter(w, p+"offload_kernel_launches_total", nil, o.KernelLaunches)
		stats.PromHeader(w, p+"offload_transfers_total", "counter",
			"logical PCIe copy operations, by direction")
		stats.PromCounter(w, p+"offload_transfers_total", stats.Labels{"dir": "h2d"}, o.H2DTransfers)
		stats.PromCounter(w, p+"offload_transfers_total", stats.Labels{"dir": "d2h"}, o.D2HTransfers)
		stats.PromHeader(w, p+"offload_fused_segments_total", "counter",
			"multi-element device-resident segment submissions")
		stats.PromCounter(w, p+"offload_fused_segments_total", nil, o.FusedSegments)
		stats.PromHeader(w, p+"offload_transfers_saved_total", "counter",
			"PCIe copies elided by segment residency")
		stats.PromCounter(w, p+"offload_transfers_saved_total", nil, o.TransfersSaved)
		stats.PromHeader(w, p+"offload_gpu_busy_ns_total", "counter",
			"modeled device occupancy in nanoseconds (serialized)")
		stats.PromCounter(w, p+"offload_gpu_busy_ns_total", nil, o.GPUBusyNs)
		stats.PromHeader(w, p+"offload_overlap_ns_total", "counter",
			"modeled H2D time hidden by double-buffered pipelining")
		stats.PromCounter(w, p+"offload_overlap_ns_total", nil, o.OverlapNs)
		if len(o.PerDevice) > 0 {
			stats.PromHeader(w, p+"offload_device_batches_total", "counter",
				"batches per emulated device (active devices only)")
			for _, d := range o.PerDevice {
				stats.PromCounter(w, p+"offload_device_batches_total",
					stats.Labels{"device": d.Name}, d.Batches)
			}
			stats.PromHeader(w, p+"offload_device_busy_ns_total", "counter",
				"modeled busy time per emulated device (active devices only)")
			for _, d := range o.PerDevice {
				stats.PromCounter(w, p+"offload_device_busy_ns_total",
					stats.Labels{"device": d.Name}, d.BusyNs)
			}
		}
	}
	// Compiled CPU stage-loop counters, gated like the offload block so
	// interpreted-only runs emit no zero-value series.
	if o := r.Offload; o.CompiledBatches > 0 {
		stats.PromHeader(w, p+"compiled_batches_total", "counter",
			"batches executed through a compiled CPU stage-loop")
		stats.PromCounter(w, p+"compiled_batches_total", nil, o.CompiledBatches)
		stats.PromHeader(w, p+"compiled_hops_saved_total", "counter",
			"goroutine+channel handoffs elided by the compiled fast path")
		stats.PromCounter(w, p+"compiled_hops_saved_total", nil, o.CompiledHopsSaved)
	}
	// Per-tenant boundary totals on a shared multi-tenant dataplane.
	if len(r.PerTenant) > 0 {
		stats.PromHeader(w, p+"tenant_packets_total", "counter",
			"per-tenant packets at the shared dataplane boundary, by direction")
		for _, tt := range r.PerTenant {
			stats.PromCounter(w, p+"tenant_packets_total",
				stats.Labels{"tenant": tt.Tenant, "dir": "in"}, tt.InPackets)
			stats.PromCounter(w, p+"tenant_packets_total",
				stats.Labels{"tenant": tt.Tenant, "dir": "out"}, tt.OutPackets)
		}
		stats.PromHeader(w, p+"tenant_drop_packets_total", "counter",
			"per-tenant packets dropped on the shared dataplane")
		for _, tt := range r.PerTenant {
			stats.PromCounter(w, p+"tenant_drop_packets_total",
				stats.Labels{"tenant": tt.Tenant}, tt.DropPackets)
		}
	}
	if !r.MetricsEnabled {
		return
	}

	// elemLabels builds the common label set of one element's series; the
	// tenant label appears only on multi-tenant deployments so
	// single-tenant expositions are byte-identical to the pre-tenant form.
	elemLabels := func(e ElementStats, kind bool) stats.Labels {
		l := stats.Labels{"element": e.Name}
		if kind {
			l["kind"] = e.Kind
		}
		if e.Tenant != "" {
			l["tenant"] = e.Tenant
		}
		return l
	}
	stats.PromHeader(w, p+"element_packets_total", "counter",
		"live packets through each element, by direction")
	for _, e := range r.Elements {
		l := elemLabels(e, true)
		l["dir"] = "in"
		stats.PromCounter(w, p+"element_packets_total", l, e.PktsIn)
		l = elemLabels(e, true)
		l["dir"] = "out"
		stats.PromCounter(w, p+"element_packets_total", l, e.PktsOut)
	}
	stats.PromHeader(w, p+"element_drops_total", "counter", "packets dropped per element")
	for _, e := range r.Elements {
		stats.PromCounter(w, p+"element_drops_total", elemLabels(e, true), e.Drops)
	}
	stats.PromHeader(w, p+"element_queue_depth", "gauge", "inbox depth at snapshot time")
	for _, e := range r.Elements {
		stats.PromGauge(w, p+"element_queue_depth",
			elemLabels(e, false), float64(e.QueueLen))
	}
	stats.PromHeader(w, p+"element_send_wait_ns_total", "counter",
		"time blocked sending downstream")
	for _, e := range r.Elements {
		stats.PromCounter(w, p+"element_send_wait_ns_total",
			elemLabels(e, false), e.SendWaitNs)
	}
	stats.PromHeader(w, p+"element_process_ns", "histogram",
		"per-batch Process wall time in nanoseconds")
	for _, e := range r.Elements {
		stats.PromHistogram(w, p+"element_process_ns",
			elemLabels(e, true), e.Proc)
	}
	stats.PromHeader(w, p+"edge_packets_total", "counter", "live packets per graph edge")
	for _, ed := range r.Edges {
		stats.PromCounter(w, p+"edge_packets_total", stats.Labels{
			"from": fmt.Sprint(ed.From), "port": fmt.Sprint(ed.Port),
			"to": fmt.Sprint(ed.To),
		}, ed.Packets)
	}
}
