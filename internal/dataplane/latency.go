package dataplane

import (
	"sync/atomic"

	"nfcompass/internal/stats"
)

// End-to-end latency accounting: the injector stamps each batch's inject
// time into a fixed ring of slots keyed by batch ID, and the release side
// looks the stamp up and records inject→release nanoseconds into a
// concurrent histogram. The ring is preallocated and every operation is a
// handful of atomic loads/stores, so the hot path stays allocation-free;
// when more than latSlots batches are in flight simultaneously, older
// stamps are overwritten and those batches simply go unsampled — the
// histogram is a sample of completed batches, never a blocking ledger.
//
// The tracker is exact — every batch, outside the observation rule that
// thins every other clock read — because it is the SLO surface: the canary
// guard and the adaptor read windows of it a few batches long. Every
// Pipeline owns one and measures each batch once: from its injector (for a
// sharded replica, from InjectShard, so time queued in the shard's input
// counts) to its collector's release.

// latSlots is the in-flight window of the stamp ring (power of two).
const latSlots = 1024

// latSlot pairs a batch ID (stored +1 so zero means empty) with its inject
// timestamp. The writer clears id before updating t0 and republishes id
// last, so a reader that sees a matching id on both sides of its t0 load
// observed a coherent stamp.
type latSlot struct {
	id atomic.Uint64
	t0 atomic.Int64
}

// e2eTracker records inject→release latency for batches identified by ID.
type e2eTracker struct {
	hist  *stats.ConcurrentHistogram
	slots []latSlot
}

func newE2ETracker() *e2eTracker {
	return &e2eTracker{
		hist:  stats.NewConcurrentHistogram(stats.DefaultLatencyBoundsNs()),
		slots: make([]latSlot, latSlots),
	}
}

// record stamps batch id's inject time (nanoseconds on the pipeline's
// monotonic clock).
func (t *e2eTracker) record(id uint64, nowNs int64) {
	s := &t.slots[id&(latSlots-1)]
	s.id.Store(0)
	s.t0.Store(nowNs)
	s.id.Store(id + 1)
}

// observe records the inject→release latency of batch id, if its stamp is
// still resident. A batch steered across shards is injected and released
// once per part under its one ID, each part on its own replica's tracker,
// weighting the distribution by completion events.
func (t *e2eTracker) observe(id uint64, nowNs int64) {
	s := &t.slots[id&(latSlots-1)]
	if s.id.Load() != id+1 {
		return
	}
	t0 := s.t0.Load()
	if s.id.Load() != id+1 {
		return
	}
	if d := nowNs - t0; d >= 0 {
		t.hist.Add(float64(d))
	}
}

// snapshot returns the latency distribution so far (zero value when the
// tracker is nil, i.e. metrics are off).
func (t *e2eTracker) snapshot() stats.HistSnapshot {
	if t == nil {
		return stats.HistSnapshot{}
	}
	return t.hist.Snapshot()
}

// E2E returns the live inject→release latency distribution without
// assembling a full Report — the cheap accessor the core adaptor probes
// for interference-aware batch sizing. Zero-valued when metrics are off.
func (p *Pipeline) E2E() stats.HistSnapshot { return p.lat.snapshot() }
