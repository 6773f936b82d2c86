package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nfcompass/internal/netpkt"
)

// span is one interval at a layer boundary, recorded from the benchmark's
// side of the call. Spans of one run share RunID; Parent is the span that
// caused this one (0 = the run itself). A layer's self time is its span's
// duration minus what its child spans cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	runID string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// maxSpans bounds the span file; hot-path spans are sampled, so a 24 s run
// stays far below it.
const maxSpans = 1 << 18

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, t0: time.Now(), spans: make([]span, 0, 4096)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start, EndNs: end})
	return id
}

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, parent int) (id int, end func()) {
	id = t.add(name, parent, t.now(), 0)
	return id, func() {
		if id == 0 {
			return
		}
		now := t.now()
		t.mu.Lock()
		t.spans[id-1].EndNs = now
		t.mu.Unlock()
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{t.runID, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedSource wraps the benchmark source with a clock read either side of
// every Next — the tracing overhead bench.trace_overhead_share reports — and
// records one call in 1024 as a span.
type tracedSource struct {
	*source
	tr     *tracer
	parent int
	ns     int64
	calls  uint64
}

func (t *tracedSource) Next() (*netpkt.Packet, error) {
	a := t.tr.now()
	p, err := t.source.Next()
	b := t.tr.now()
	t.ns += b - a
	if t.calls++; t.calls&1023 == 0 {
		t.tr.add("bench.source.next", t.parent, a, b)
	}
	return p, err
}

// tracedSink does the same around Consume, one span per 64 batches.
type tracedSink struct {
	*sink
	tr     *tracer
	parent int
	ns     int64
	calls  uint64
}

func (t *tracedSink) Consume(b *netpkt.Batch) error {
	a := t.tr.now()
	err := t.sink.Consume(b)
	z := t.tr.now()
	t.ns += z - a
	if t.calls++; t.calls&63 == 0 {
		t.tr.add("bench.sink.consume", t.parent, a, z)
	}
	return err
}
