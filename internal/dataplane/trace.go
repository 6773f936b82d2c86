package dataplane

import (
	"fmt"
	"sync"

	"nfcompass/internal/element"
)

// TraceKind classifies a pipeline trace event.
type TraceKind uint8

// Trace event kinds, in batch lifecycle order.
const (
	// TraceInject marks a batch entering the pipeline at the injector.
	TraceInject TraceKind = iota
	// TraceEnter marks a batch arriving at an element's goroutine.
	TraceEnter
	// TraceExit marks the element's Process call returning.
	TraceExit
	// TraceRelease marks the batch leaving the sink collector (after
	// ordered release when PreserveOrder is on).
	TraceRelease
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceEnter:
		return "enter"
	case TraceExit:
		return "exit"
	case TraceRelease:
		return "release"
	default:
		return "unknown"
	}
}

// TraceEvent is one point of a batch's journey through the pipeline.
type TraceEvent struct {
	Kind TraceKind
	// Node is the element the event occurred at; -1 for inject/release,
	// which happen at the pipeline boundary.
	Node element.NodeID
	// Batch is the batch ID, Packets its live packet count at event time.
	Batch   uint64
	Packets int
	// NanosSinceStart is the event time relative to pipeline construction,
	// from the monotonic clock.
	NanosSinceStart int64
	// Epoch and Placement are set on TraceEnter events only: the placement
	// epoch and resolved placement ("cpu", "gpu0", "split1:0.40") the batch
	// is about to execute under. Together they make hot-swap atomicity
	// auditable — a batch never enters one element under two placements.
	Epoch     uint64
	Placement string
	// Segment is the device-resident segment the element belongs to under
	// that epoch's placement (-1 when not device-resident). Members of one
	// fused submission share the id, which is how a trace shows a batch
	// riding a single H2D/D2H pair across the whole run.
	Segment int
}

// String implements fmt.Stringer.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("%8dus %-7s node=%-3d batch=%d live=%d",
		e.NanosSinceStart/1e3, e.Kind, e.Node, e.Batch, e.Packets)
	if e.Segment >= 0 {
		s += fmt.Sprintf(" seg=%d", e.Segment)
	}
	return s
}

// TraceSink receives pipeline trace events. Emit is called from every
// pipeline goroutine concurrently, on the packet path: implementations must
// be concurrency-safe and cheap. A nil sink in Config disables tracing
// entirely (the per-event cost is a single pointer check).
type TraceSink interface {
	Emit(TraceEvent)
}

// RingTrace is a bounded in-memory TraceSink keeping the most recent
// events. It trades a mutex per event for zero allocation steady-state; use
// it for debugging runs, not saturation benchmarks.
type RingTrace struct {
	mu   sync.Mutex
	buf  []TraceEvent
	next int
}

// NewRingTrace returns a ring buffer holding the last n events (minimum 1).
func NewRingTrace(n int) *RingTrace {
	if n < 1 {
		n = 1
	}
	return &RingTrace{buf: make([]TraceEvent, 0, n)}
}

// Emit implements TraceSink.
func (r *RingTrace) Emit(e TraceEvent) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.mu.Unlock()
}

// Events returns the retained events in emission order.
func (r *RingTrace) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
