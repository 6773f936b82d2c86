package dataplane

import (
	"fmt"

	"nfcompass/internal/element"
	"nfcompass/internal/profile"
)

// This file bridges live pipeline snapshots into the profiling types the
// task allocator consumes (core.Allocate takes a *profile.Dictionary and a
// *profile.Intensities). It makes the running dataplane an alternative
// profile source to internal/profile's offline sweep: traffic intensities
// come straight from the per-node/per-edge counters, and measured CPU
// timings can overwrite the dictionary's offline CPU costs while the
// offline GPU-side numbers (which a CPU-host run cannot observe) are kept.

// Intensities converts the report's per-element and per-edge packet counts
// into the runtime traffic statistics of paper §IV-C-2, normalized by the
// injected live packet count. It fails when the pipeline ran without
// Config.Metrics or saw no traffic.
func (r *Report) Intensities() (*profile.Intensities, error) {
	if !r.MetricsEnabled {
		return nil, fmt.Errorf("dataplane: pipeline ran without Config.Metrics")
	}
	if r.InPackets == 0 {
		return nil, fmt.Errorf("dataplane: no packets observed")
	}
	in := float64(r.InPackets)
	res := &profile.Intensities{
		Node:        make(map[element.NodeID]float64, len(r.Elements)),
		Edge:        make(map[element.EdgeKey]float64, len(r.Edges)),
		AvgPktBytes: float64(r.InBytes) / in,
	}
	for _, e := range r.Elements {
		res.Node[e.Node] = float64(e.PktsIn) / in
	}
	for _, ed := range r.Edges {
		res.Edge[ed.EdgeKey] = float64(ed.Packets) / in
	}
	return res, nil
}

// CPUTimings aggregates measured mean CPU nanoseconds per live packet by
// element kind (instances of the same kind are pooled). Elements whose
// timed batches carried zero live packets are skipped entirely: such an
// element still accumulates Process wall time (the histogram records every
// timed call, even on all-dropped batches), and folding that time into a
// kind's sum with no packets in the denominator would inflate the pooled
// ns/pkt for its healthy siblings.
//
// Endpoint kinds (FromDevice/ToDevice) ARE included here — the map is a
// faithful account of what the live run measured. The convention is that
// dictionary consumers skip them at apply time (see ApplyCPUTimings): the
// profiler's Dictionary prices NF processing, not the pipeline's I/O
// boundary, and the allocator never considers endpoints offload candidates
// (the dataplane's placement resolver pins them to the CPU for the same
// reason).
func (r *Report) CPUTimings() map[string]float64 {
	sumNs := make(map[string]float64)
	pkts := make(map[string]uint64)
	for _, e := range r.Elements {
		if e.ProcPkts == 0 {
			continue
		}
		sumNs[e.Kind] += e.Proc.Sum
		pkts[e.Kind] += e.ProcPkts
	}
	out := make(map[string]float64, len(sumNs))
	for kind, ns := range sumNs {
		if pkts[kind] > 0 {
			out[kind] = ns / float64(pkts[kind])
		}
	}
	return out
}

// ApplyCPUTimings overwrites d's CPU cost for every kind this report
// measured, leaving GPU-side entries (unobservable from a live CPU run)
// untouched. Endpoint kinds are dropped here, per the convention documented
// on CPUTimings: FromDevice/ToDevice are pipeline I/O boundary elements the
// Dictionary does not profile. Returns the number of dictionary entries
// updated.
func (r *Report) ApplyCPUTimings(d *profile.Dictionary) int {
	updated := 0
	for kind, ns := range r.CPUTimings() {
		if kind == "FromDevice" || kind == "ToDevice" {
			continue
		}
		updated += d.OverrideCPU(kind, ns)
	}
	return updated
}
