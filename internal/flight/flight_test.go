package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestLaneSpansMergeSorted(t *testing.T) {
	r := New(Config{SpansPerLane: 8})
	a := r.Lane(StageRead, 0)
	b := r.Lane(StageRX, 1)
	a.Span(1, 10, 100, 200)
	b.Span(2, 20, 150, 300)
	a.Span(3, 30, 400, 500)

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs < spans[i-1].StartNs {
			t.Fatalf("spans not sorted by start: %v", spans)
		}
	}
	if spans[0].Stage != StageRead || spans[0].Packets != 10 {
		t.Fatalf("unexpected first span: %+v", spans[0])
	}
}

func TestLaneRingKeepsTail(t *testing.T) {
	r := New(Config{SpansPerLane: 4})
	l := r.Lane(StageDrain, 0)
	for i := 0; i < 10; i++ {
		l.Span(uint64(i), 1, int64(i*10), int64(i*10+5))
	}
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	if spans[0].Batch != 6 || spans[3].Batch != 9 {
		t.Fatalf("ring did not keep the newest tail: %+v", spans)
	}
	if got := l.packets.Load(); got != 10 {
		t.Fatalf("packet meter = %d, want 10 (meters count all, ring keeps tail)", got)
	}
}

// TestObserveCountsEveryBatch: Observe counts every batch, selects one ID
// in Period() whatever stride the IDs reach the lane in (NIC steering and
// the RX workers' shared counter both deal IDs out in strides), and agrees
// with the package-level rule a recorder-less plane asks.
func TestObserveCountsEveryBatch(t *testing.T) {
	if !Observed(0) {
		t.Fatal("ID 0 is not observed: a one-batch run would have no sample")
	}
	r := New(Config{})
	const n = 1 << 14
	for _, stride := range []uint64{1, 2, 3, 4, 8, 16} {
		for off := uint64(0); off < stride; off++ {
			l := r.Lane(StageRX, int(stride*100+off))
			var seen, hit uint64
			for id := off; id < n; id += stride {
				seen++
				if got := l.Observe(id); got != Observed(id) {
					t.Fatalf("Observe(%d) = %v, Observed = %v", id, got, !got)
				} else if got {
					hit++
					l.Span(id, 1, 0, 0)
				}
			}
			if l.batches.Load() != seen || l.observed.Load() != hit {
				t.Fatalf("stride %d+%d: meters %d/%d, want %d/%d", stride, off,
					l.batches.Load(), l.observed.Load(), seen, hit)
			}
			// Within 10 % of 1/Period on every residue class of every stride.
			if want := float64(seen) / float64(Period()); math.Abs(float64(hit)-want) > 0.1*want {
				t.Errorf("stride %d+%d: observed %d of %d, want %.0f ± 10 %%", stride, off, hit, seen, want)
			}
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Fatal("nil recorder Now should be 0")
	}
	l := r.Lane(StageRead, 0)
	if l != nil {
		t.Fatal("nil recorder should hand out nil lanes")
	}
	l.Span(1, 1, 0, 1) // must not panic
	l.AddBusy(5)
	l.AddStall(5)
	if l.Now() != 0 {
		t.Fatal("nil lane Now should be 0")
	}
	r.AddQueue("x", 0, func() (int, int) { return 0, 0 })
	lg := r.Ledger()
	lg.Add("x", "y", 3)
	if lg.Total() != 0 {
		t.Fatal("nil ledger should stay empty")
	}
	if got := lg.String(); got != "clean" {
		t.Fatalf("nil ledger String = %q", got)
	}
	if r.Spans() != nil || r.Samples() != nil {
		t.Fatal("nil recorder snapshots should be nil")
	}
	r.WritePrometheus(&bytes.Buffer{})
	var s *Sampler
	s.Sample()
	s.Start()
	s.Stop()
	if rep := s.Report(); rep.Limiting != "" {
		t.Fatal("nil sampler report should be empty")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New(Config{SpansPerLane: 64})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := r.Lane(StageRX, w)
			for i := 0; i < 1000; i++ {
				l.Observe(uint64(i))
				t0 := l.Now()
				l.AddBusy(10)
				l.Span(uint64(i), 4, t0, l.Now())
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Spans()
			r.Samples()
		}
	}()
	wg.Wait()
	<-done
	rows := r.Samples()
	if len(rows) != workers {
		t.Fatalf("got %d sample rows, want %d", len(rows), workers)
	}
	for _, row := range rows {
		if row.Batches != 1000 || row.Packets != 4000 || row.BusyNs != 10000 {
			t.Fatalf("meter mismatch: %+v", row)
		}
	}
}

func TestLedger(t *testing.T) {
	r := New(Config{})
	lg := r.Ledger()
	lg.Add(StageInject, ReasonInjectRefused, 7)
	lg.Add(StageRead, ReasonCtxCanceled, 3)
	lg.Add(StageInject, ReasonInjectRefused, 5)
	c := lg.Counter(StageRing, ReasonAbandoned)
	c.Add(2)
	if lg.Total() != 17 {
		t.Fatalf("Total = %d, want 17", lg.Total())
	}
	entries := lg.Entries()
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(entries), entries)
	}
	if entries[0].Stage != StageInject || entries[0].Packets != 12 {
		t.Fatalf("entries not sorted/summed: %+v", entries)
	}
	s := lg.String()
	for _, want := range []string{"inject/inject-refused=12", "read/ctx-canceled=3", "ring/abandoned=2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ledger String %q missing %q", s, want)
		}
	}
}

func TestQueueProbeMergesIntoSamples(t *testing.T) {
	r := New(Config{})
	l := r.Lane(StageRX, 2)
	l.AddBusy(100)
	r.AddQueue(StageRX, 2, func() (int, int) { return 5, 16 })
	r.AddQueue(StageRing, 0, func() (int, int) { return 7, 64 })

	rows := r.Samples()
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (probe merged into lane): %+v", len(rows), rows)
	}
	var rx, ring *StageSample
	for i := range rows {
		switch rows[i].Stage {
		case StageRX:
			rx = &rows[i]
		case StageRing:
			ring = &rows[i]
		}
	}
	if rx == nil || !rx.HasQueue || rx.QueueLen != 5 || rx.QueueCap != 16 || rx.BusyNs != 100 {
		t.Fatalf("rx row wrong: %+v", rx)
	}
	if ring == nil || !ring.HasQueue || ring.QueueLen != 7 || ring.Batches != 0 {
		t.Fatalf("queue-only row wrong: %+v", ring)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	r := New(Config{})
	r.Lane(StageRead, 0).Span(1, 32, 1000, 2000)
	r.Lane(StageRead, 1).Span(2, 32, 1500, 1500) // zero-width
	r.Lane("nf:fire wall", 0).Span(1, 32, 2100, 3000)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tr struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, ev := range tr.Events {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("complete event with non-positive dur: %v", ev)
			}
		case "M":
			meta++
		}
	}
	if complete != 3 {
		t.Fatalf("got %d complete events, want 3", complete)
	}
	if meta < 4 { // process_name + per-track thread_name/thread_sort_index
		t.Fatalf("got %d metadata events, want >= 4", meta)
	}
}

func TestWriteSpansNDJSONTail(t *testing.T) {
	r := New(Config{})
	l := r.Lane(StageDrain, 0)
	for i := 0; i < 5; i++ {
		l.Span(uint64(i), 1, int64(i), int64(i+1))
	}
	var buf bytes.Buffer
	if err := r.WriteSpans(&buf, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", len(lines))
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[1]), &sp); err != nil {
		t.Fatalf("bad NDJSON line: %v", err)
	}
	if sp.Batch != 4 {
		t.Fatalf("tail should end with newest span, got batch %d", sp.Batch)
	}
}

// TestRecorderAllocs is the steady-state guard: once lanes and ledger
// counters are resolved, recording spans, meters, and drops allocates
// nothing.
func TestRecorderAllocs(t *testing.T) {
	r := New(Config{SpansPerLane: 128})
	l := r.Lane(StageRX, 0)
	c := r.Ledger().Counter(StageInject, ReasonInjectRefused)
	var batch uint64
	allocs := testing.AllocsPerRun(1000, func() {
		if l.Observe(batch) {
			t0 := l.Now()
			l.AddBusy(50)
			l.AddStall(5)
			l.Span(batch, 64, t0, l.Now())
		}
		c.Inc()
		batch++
	})
	if allocs != 0 {
		t.Fatalf("steady-state recording allocates %v/op, want 0", allocs)
	}
}
