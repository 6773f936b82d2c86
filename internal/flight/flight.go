// Package flight is the pipeline flight recorder: a low-overhead
// observability layer threaded through the ingress plane and the sharded
// dataplane. It captures three kinds of evidence about a run:
//
//   - Batch lifecycle spans: a compact {stage, lane, batch, packets,
//     start, end} record stamped at every stage boundary (source read,
//     ring enqueue/dequeue, conntrack sweep, shard inject, per-element
//     processing, ordered release, drain/sink), held in per-lane ring
//     buffers and merged on snapshot. Spans export as an NDJSON tail and
//     as Chrome trace_event JSON that opens directly in Perfetto.
//   - Busy/stall meters and queue-depth probes: cumulative monotonic
//     counters written with single atomic adds on the hot path, plus
//     registered closures that read SPSC ring cursors and shard inbox
//     backlogs. A Sampler turns them into utilization and occupancy
//     series and, via the utilization law, a bottleneck report.
//   - A loss ledger: every drop/abort path increments a {stage, reason}
//     counter so total drops always reconcile with the arena audit.
//
// Spans and meters follow one observation rule (Observed): every stage
// counts every batch, and reads the clock and writes a span for one batch
// ID in Period() only — so an observed batch has a span on every stage it
// crossed, source to sink, an unobserved one has none, and the Sampler
// scales a lane's busy and stall time by its counted/observed batch ratio.
//
// Every method on Recorder, LaneRecorder, and Ledger is safe on a nil
// receiver and does nothing, so instrumented hot paths call
// unconditionally and an absent recorder (Config.Flight == nil) costs one
// predictable nil check per call site.
package flight

import (
	"math"
	"sort"
	"sync"
	"time"

	"nfcompass/internal/stats"
)

// Stage names used by the built-in instrumentation. Lanes are keyed by
// free-form stage strings so new subsystems can join without touching this
// package; per-element lanes use "nf:<element name>".
const (
	StageRead      = "read"      // source readers: read + RSS classify
	StageRing      = "ring"      // reader→worker SPSC rings (queue probes)
	StageRX        = "rx"        // per-queue RX workers: pop, touch, batch build
	StageConntrack = "conntrack" // incremental conntrack expiry sweeps
	StageInject    = "inject"    // InjectShard handoff
	StageShard     = "shard"     // shard inbox backlog (queue probes)
	StageRelease   = "release"   // collector emit / ordered release
	StageDrain     = "drain"     // egress drain / sink consume
	StagePipeline  = "pipeline"  // whole-pipeline accounting (ledger only)
)

// observePeriod is the observation rule's period: one batch ID in this many
// is observed.
const observePeriod = 16

// Period returns the observation rule's period, for views that name it.
func Period() int { return observePeriod }

// Observed is the observation rule: whether the stages batch id crosses read
// the clock and record spans for it. Every timing site of the ingress plane
// and the dataplane asks it, with or without a recorder, so all of them time
// the same batches. It observes the lowest 1/period of the ID's Fibonacci
// hash, not of the ID: IDs reach a lane in strides — NIC steering deals
// consecutive IDs round-robin over queues, RX workers draw from one shared
// counter — and a modulus would observe one lane's every batch and another's
// none. ID 0 is observed, so the shortest run has a sample.
func Observed(id uint64) bool {
	return id*0x9E3779B97F4A7C15 <= math.MaxUint64/observePeriod
}

// Span is one batch's transit through one stage on one lane. Timestamps
// are nanoseconds since the recorder's origin (Recorder.Now's zero).
type Span struct {
	Stage   string `json:"stage"`
	Lane    int    `json:"lane"`
	Batch   uint64 `json:"batch"`
	Packets int    `json:"packets"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Config is New's argument. It has no fields: the repo benchmark calls
// New(Config{}), and ROADMAP item 10(c) deletes the type with that call.
type Config struct{}

// spansPerLane is the capacity of each lane's span ring. Older spans are
// overwritten; snapshots return the surviving tail.
const spansPerLane = 512

// Recorder owns the lanes, queue probes, and loss ledger for one run. One
// recorder is shared by the ingress plane and every dataplane shard; lanes
// are identified by (stage, lane index) and are created on first use.
type Recorder struct {
	origin time.Time
	// perLane is spansPerLane; in-package tests shrink it before the
	// first Lane call to exercise ring wrap-around.
	perLane int

	mu     sync.Mutex
	lanes  []*LaneRecorder
	byKey  map[laneKey]*LaneRecorder
	queues []queueProbe

	ledger *Ledger
}

type laneKey struct {
	stage string
	lane  int
}

type queueProbe struct {
	stage string
	lane  int
	depth func() (length, capacity int)
}

// New builds a Recorder with its origin at the current time.
func New(Config) *Recorder {
	return &Recorder{
		origin:  time.Now(),
		perLane: spansPerLane,
		byKey:   make(map[laneKey]*LaneRecorder),
		ledger:  newLedger(),
	}
}

// Now returns nanoseconds since the recorder's origin — the timestamp base
// for spans. Returns 0 on a nil recorder.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.origin).Nanoseconds()
}

// Lane returns the recorder for (stage, lane), creating it on first use.
// Lane creation takes the recorder mutex and allocates; hot paths must
// resolve their lanes once at startup, not per batch. Returns nil on a nil
// recorder (and every LaneRecorder method is nil-safe).
func (r *Recorder) Lane(stage string, lane int) *LaneRecorder {
	if r == nil {
		return nil
	}
	k := laneKey{stage, lane}
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.byKey[k]; ok {
		return l
	}
	l := &LaneRecorder{
		rec:   r,
		stage: stage,
		lane:  lane,
		buf:   make([]Span, r.perLane),
	}
	r.byKey[k] = l
	r.lanes = append(r.lanes, l)
	return l
}

// AddQueue registers a depth probe for (stage, lane). The closure is
// called from the sampler goroutine concurrently with producers and
// consumers, so it must be safe without external locking (the SPSC ring
// and channel probes read atomic cursors / channel length). Probes
// matching a lane key annotate that lane's samples; probes with no lane
// produce queue-only sample rows.
func (r *Recorder) AddQueue(stage string, lane int, depth func() (length, capacity int)) {
	if r == nil || depth == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queues = append(r.queues, queueProbe{stage: stage, lane: lane, depth: depth})
}

// Ledger returns the recorder's loss-attribution ledger (nil on a nil
// recorder; the Ledger API is nil-safe).
func (r *Recorder) Ledger() *Ledger {
	if r == nil {
		return nil
	}
	return r.ledger
}

// Spans snapshots every lane's surviving spans, merged and ordered by
// start time. Concurrent recording continues; each lane is copied under
// its own short-lived lock.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lanes := append([]*LaneRecorder(nil), r.lanes...)
	r.mu.Unlock()
	var out []Span
	for _, l := range lanes {
		out = l.appendSpans(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}

// StageSample is one (stage, lane) row of a recorder snapshot: the
// cumulative busy/stall meters plus, when a depth probe is registered for
// the same key, the queue's instantaneous occupancy. Batches counts every
// batch; Observed the ones recorded as spans, whose time and packets the
// other three meters hold.
type StageSample struct {
	Stage    string `json:"stage"`
	Lane     int    `json:"lane"`
	BusyNs   int64  `json:"busy_ns"`
	StallNs  int64  `json:"stall_ns"`
	Batches  uint64 `json:"batches"`
	Observed uint64 `json:"observed"`
	Packets  uint64 `json:"packets"`

	HasQueue bool `json:"has_queue,omitempty"`
	QueueLen int  `json:"queue_len,omitempty"`
	QueueCap int  `json:"queue_cap,omitempty"`
}

// Samples snapshots every lane's meters and every queue probe, merged by
// (stage, lane) and sorted. This is what the Sampler polls.
func (r *Recorder) Samples() []StageSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lanes := append([]*LaneRecorder(nil), r.lanes...)
	queues := append([]queueProbe(nil), r.queues...)
	r.mu.Unlock()

	byKey := make(map[laneKey]*StageSample, len(lanes)+len(queues))
	order := make([]laneKey, 0, len(lanes)+len(queues))
	for _, l := range lanes {
		k := laneKey{l.stage, l.lane}
		s := &StageSample{
			Stage:    l.stage,
			Lane:     l.lane,
			BusyNs:   int64(l.busy.Load()),
			StallNs:  int64(l.stall.Load()),
			Batches:  l.batches.Load(),
			Observed: l.observed.Load(),
			Packets:  l.packets.Load(),
		}
		byKey[k] = s
		order = append(order, k)
	}
	for _, q := range queues {
		k := laneKey{q.stage, q.lane}
		s, ok := byKey[k]
		if !ok {
			s = &StageSample{Stage: q.stage, Lane: q.lane}
			byKey[k] = s
			order = append(order, k)
		}
		n, c := q.depth()
		s.HasQueue = true
		s.QueueLen += n
		s.QueueCap += c
	}
	out := make([]StageSample, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}

// LaneRecorder is the recording surface of one (stage, lane): a span ring
// guarded by a lane-local mutex (uncontended in steady state — one
// goroutine at a time records per lane, a dataplane element's own or its
// segment head's; the lock only ever contends with a snapshot) plus
// cumulative busy/stall/batch meters written with single atomic adds, each
// (stats.Counter) on a cache line of its own, so adjacent lanes' meters
// never share one.
type LaneRecorder struct {
	rec   *Recorder
	stage string
	lane  int

	busy, stall                stats.Counter // ns
	batches, observed, packets stats.Counter

	mu    sync.Mutex
	buf   []Span
	next  int
	total uint64
}

// Now returns nanoseconds since the owning recorder's origin (0 on nil).
func (l *LaneRecorder) Now() int64 {
	if l == nil {
		return 0
	}
	return l.rec.Now()
}

// Observe counts one batch on the lane — every batch, one atomic add — and
// reports whether the caller should clock it and record it (AddBusy,
// AddStall, Span). False on a nil lane.
func (l *LaneRecorder) Observe(batch uint64) bool {
	if l == nil {
		return false
	}
	l.batches.Add(1)
	return Observed(batch)
}

// Span records one observed batch's transit. startNs/endNs are
// Recorder.Now timestamps. Allocation-free: the span overwrites the oldest
// slot in the lane's fixed ring.
func (l *LaneRecorder) Span(batch uint64, packets int, startNs, endNs int64) {
	if l == nil {
		return
	}
	l.observed.Add(1)
	l.packets.Add(uint64(packets))
	l.mu.Lock()
	l.buf[l.next] = Span{
		Stage:   l.stage,
		Lane:    l.lane,
		Batch:   batch,
		Packets: packets,
		StartNs: startNs,
		EndNs:   endNs,
	}
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
	}
	l.total++
	l.mu.Unlock()
}

// AddBusy accrues ns of productive work on an observed batch. Busy time
// drives the sampler's utilization estimate; backpressure waits belong in
// AddStall, not here, or the blocked stage masquerades as the bottleneck.
func (l *LaneRecorder) AddBusy(ns int64) {
	if l == nil || ns <= 0 {
		return
	}
	l.busy.Add(uint64(ns))
}

// AddStall accrues ns spent blocked on a downstream stage (ring full,
// shard inbox full).
func (l *LaneRecorder) AddStall(ns int64) {
	if l == nil || ns <= 0 {
		return
	}
	l.stall.Add(uint64(ns))
}

// appendSpans copies the lane's surviving spans (oldest first) onto dst.
func (l *LaneRecorder) appendSpans(dst []Span) []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.total >= uint64(len(l.buf)) {
		dst = append(dst, l.buf[l.next:]...)
		dst = append(dst, l.buf[:l.next]...)
		return dst
	}
	return append(dst, l.buf[:l.next]...)
}
