package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/stats"
)

// Adaptor implements NFCompass's dynamic task adaption: the runtime keeps
// sampling the traffic (per-edge intensities, per-element table-access
// rates, packet sizes) and re-runs the allocator when the observed profile
// drifts from the one the current assignment was computed for. This is the
// answer to the paper's observation that "in the NFV environment with
// varying traffics, the optimal configurations for network function task
// mappings can deviate significantly" — and the "dynamic task adaption"
// step the light-weight partitioner relies on.
type Adaptor struct {
	d *Deployment
	// Threshold is the relative drift that triggers re-allocation
	// (default 0.25 = 25%).
	Threshold float64
	// Reallocations counts how many times Observe re-allocated.
	Reallocations int

	// MinBatch/MaxBatch bound the interference-aware batch controller
	// (defaults 16 and 1024). ShrinkFactor is the baseline-relative p99
	// multiple that marks interference and halves the batch (default 1.5);
	// GrowFactor the multiple under which the batch grows additively
	// (default 1.1). BatchResizes counts adopted resizes.
	MinBatch     int
	MaxBatch     int
	ShrinkFactor float64
	GrowFactor   float64
	BatchResizes int

	rt      Runtime
	last    trafficSig
	journal *DecisionJournal

	// Interference-aware batch sizing state: the live batch size (read by
	// the traffic feeder via BatchSize, hence atomic), the cumulative e2e
	// histogram at the previous observation (windows are bucket deltas),
	// and the best windowed p99 seen — the interference-free baseline.
	batch   atomic.Int64
	lastE2E stats.HistSnapshot
	baseP99 float64
}

// Runtime is a running execution engine that can hot-swap its assignment —
// the live side of the profile → allocate → execute loop. Both
// dataplane.Pipeline and dataplane.ShardedPipeline implement it (the
// interface lives here so core does not depend on the dataplane package).
type Runtime interface {
	// Apply atomically swaps the engine's placement to the assignment
	// without dropping packets or violating per-flow order.
	Apply(hetsim.Assignment) error
}

// Attach connects a running engine: every re-allocation Observe makes is
// applied to it immediately, closing the adaptation loop end to end. A nil
// rt detaches.
func (a *Adaptor) Attach(rt Runtime) { a.rt = rt }

// Journal returns the adaptor's decision journal: a bounded record of every
// Observe outcome (accepted or rejected, with predicted vs. measured cost
// and the resulting placement epoch), serveable live by the telemetry
// server's /decisions endpoint.
func (a *Adaptor) Journal() *DecisionJournal { return a.journal }

// rtEpoch reads the attached runtime's placement epoch, when it exposes one
// (dataplane.Pipeline and dataplane.ShardedPipeline both do).
func (a *Adaptor) rtEpoch() uint64 {
	if e, ok := a.rt.(interface{ Epoch() uint64 }); ok {
		return e.Epoch()
	}
	return 0
}

// trafficSig fingerprints the traffic a deployment was tuned for.
type trafficSig struct {
	valid     bool
	intensity map[element.NodeID]float64
	memPerPkt map[element.NodeID]float64
	avgBytes  float64
}

// NewAdaptor wraps a deployment for runtime adaptation; re-allocation uses
// the Options d was deployed with. Observe executes d.Graph, so a live
// dataplane the adaptor is attached to runs replicas from d.Build.
func NewAdaptor(d *Deployment) *Adaptor {
	a := &Adaptor{d: d, Threshold: 0.25,
		MinBatch: 16, MaxBatch: 1024,
		ShrinkFactor: 1.5, GrowFactor: 1.1,
		journal: NewDecisionJournal(256)}
	a.batch.Store(int64(clampInt(d.opt.BatchSize, a.MinBatch, a.MaxBatch)))
	return a
}

// BatchSize returns the controller's current batch size. The traffic
// feeder reads it per batch (it is atomic), closing the loop: the adaptor
// shrinks the batch when co-located work inflates tail latency and grows
// it back when the interference subsides.
func (a *Adaptor) BatchSize() int { return int(a.batch.Load()) }

// Observe feeds a traffic sample to the adaptor. The sample is consumed
// (it runs through the deployment graph functionally). When the observed
// profile drifts beyond the threshold, the allocator re-runs against the
// fresh profile and the deployment's assignment is replaced; Observe
// reports whether that happened.
func (a *Adaptor) Observe(sample []*netpkt.Batch) (bool, error) {
	if len(sample) == 0 {
		return false, fmt.Errorf("core: empty adaptation sample")
	}
	a.adaptBatch()

	// capture's functional pass consumes the sample; its trace is what
	// re-allocation weighs and prices.
	sig, ps, err := a.capture(sample)
	if err != nil {
		a.journal.Record(Decision{Reason: "error", Threshold: a.Threshold,
			Epoch: a.rtEpoch(), Err: err.Error()})
		return false, err
	}

	drift := 0.0
	if a.last.valid {
		drift = a.drift(sig)
	}
	if a.last.valid && drift <= a.Threshold {
		a.last = sig
		a.journal.Record(Decision{Reason: "drift below threshold",
			Drift: drift, Threshold: a.Threshold, Epoch: a.rtEpoch()})
		return false, nil
	}
	first := !a.last.valid
	a.last = sig

	// First observation just primes the signature: the deployment was
	// freshly tuned by Deploy.
	if first {
		a.journal.Record(Decision{Reason: "primed", Threshold: a.Threshold,
			Epoch: a.rtEpoch()})
		return false, nil
	}

	fail := func(err error) (bool, error) {
		a.journal.Record(Decision{Reason: "error", Drift: drift,
			Threshold: a.Threshold, Epoch: a.rtEpoch(), Err: err.Error()})
		return false, err
	}

	// Allocate and validate as Deploy does, on the observed traffic.
	if err := a.d.place(ps); err != nil {
		return fail(err)
	}
	rep := a.d.Alloc
	a.Reallocations++
	d := Decision{Accepted: true, Reason: "reallocated", Drift: drift,
		Threshold: a.Threshold, Candidate: rep.Selected,
		PredictedCostNs: rep.Cost, MeasuredGbps: rep.Gbps}
	if a.rt != nil {
		if err := a.rt.Apply(a.d.Assignment); err != nil {
			d.Reason, d.Err = "apply failed", err.Error()
			d.Epoch = a.rtEpoch()
			a.journal.Record(d)
			return true, err
		}
	}
	d.Epoch = a.rtEpoch()
	a.journal.Record(d)
	return true, nil
}

// capture executes the sample — the pass re-allocation weighs and prices —
// and fingerprints it: per-node intensities, the mean packet size, and each
// node's exact table accesses per live packet, so content-dependent cost
// shifts (e.g. no-match traffic turning into full-match) register even when
// the flow distribution is unchanged.
func (a *Adaptor) capture(sample []*netpkt.Batch) (trafficSig, *pass, error) {
	ps, err := execute(a.d.Graph, a.d.Platform, a.d.Costs, sample)
	if err != nil {
		return trafficSig{}, nil, err
	}
	sig := trafficSig{
		valid:     true,
		intensity: ps.in.Node,
		memPerPkt: make(map[element.NodeID]float64),
		avgBytes:  ps.in.AvgPktBytes,
	}
	for id, ns := range ps.sim.ServiceByNode(ps.trace) {
		if ns.N > 0 {
			sig.memPerPkt[element.NodeID(id)] = ns.Mem / float64(ns.N)
		}
	}
	return sig, ps, nil
}

// drift returns the largest relative change between the stored signature
// and the new one.
func (a *Adaptor) drift(now trafficSig) float64 {
	d := relDelta(a.last.avgBytes, now.avgBytes)
	for id, v := range now.intensity {
		if dd := relDelta(a.last.intensity[id], v); dd > d {
			d = dd
		}
	}
	for id, v := range now.memPerPkt {
		if dd := relDelta(a.last.memPerPkt[id], v); dd > d {
			d = dd
		}
	}
	return d
}

// relDelta is |a-b| / max(|a|,|b|,1).
func relDelta(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / den
}

// batchWindowMin is the fewest e2e samples a window needs before the batch
// controller acts on its p99 (smaller windows are tail-latency noise).
const batchWindowMin = 8

// adaptBatch runs the interference-aware batch controller: probe the
// attached runtime's live e2e latency ring, window it against the previous
// observation, and AIMD the batch size against the baseline p99 — halve on
// interference (p99 beyond ShrinkFactor× the best windowed p99 seen), grow
// additively while the tail stays within GrowFactor×. This is the
// mitigation for the paper's observation that consolidated NFs contend for
// shared cache/memory bandwidth: when a co-located chain inflates our tail,
// smaller batches shorten the per-stage occupancy the interference
// multiplies. Every adopted resize is journaled.
func (a *Adaptor) adaptBatch() {
	rt, ok := a.rt.(interface{ E2E() stats.HistSnapshot })
	if !ok {
		return
	}
	cur := rt.E2E()
	win := histWindow(cur, a.lastE2E)
	a.lastE2E = cur
	if win.Count < batchWindowMin {
		return
	}
	p99 := win.Percentile(99)
	if a.baseP99 == 0 || p99 < a.baseP99 {
		a.baseP99 = p99
	}
	old := a.BatchSize()
	next := old
	switch {
	case p99 > a.baseP99*a.ShrinkFactor:
		next = clampInt(old/2, a.MinBatch, a.MaxBatch)
	case p99 <= a.baseP99*a.GrowFactor:
		next = clampInt(old+a.MinBatch, a.MinBatch, a.MaxBatch)
	}
	if next == old {
		return
	}
	a.batch.Store(int64(next))
	a.BatchResizes++
	reason := "batch grow"
	if next < old {
		reason = "batch shrink"
	}
	a.journal.Record(Decision{Accepted: true, Reason: reason,
		Threshold: a.Threshold, Epoch: a.rtEpoch(),
		BatchSize: next, PrevBatchSize: old,
		P99Ns: p99, BaselineP99Ns: a.baseP99})
}

// histWindow returns cur minus prev bucket-wise — the samples recorded
// between two cumulative snapshots (see stats.HistSnapshot.Window, which
// the canary SLO guard shares).
func histWindow(cur, prev stats.HistSnapshot) stats.HistSnapshot {
	return cur.Window(prev)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
