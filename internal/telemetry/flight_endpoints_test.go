package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"nfcompass/internal/flight"
	"nfcompass/internal/stats"
)

// flightFixture builds a recorder with recorded spans on several stages, a
// non-empty loss ledger, and a sampler that has taken real ticks — enough
// signal for every flight endpoint to produce non-trivial output.
func flightFixture(t *testing.T) (*flight.Recorder, *flight.Sampler) {
	t.Helper()
	rec := flight.New(flight.Config{})
	read := rec.Lane(flight.StageRead, 0)
	rx := rec.Lane(flight.StageRX, 1)
	rec.AddQueue(flight.StageRing, 0, func() (int, int) { return 12, 64 })
	for i := uint64(1); i <= 8; i++ {
		now := read.Now()
		read.AddBusy(1000)
		read.Span(i, 32, now-1000, now)
		now = rx.Now()
		rx.AddBusy(500)
		rx.Span(i, 32, now-500, now)
	}
	rec.Ledger().Add(flight.StageInject, flight.ReasonInjectRefused, 3)

	smp := flight.NewSampler(rec, 0)
	smp.Sample()             // seed
	read.AddBusy(read.Now()) // saturate: busy ≈ wall since origin
	smp.Sample()
	return rec, smp
}

func TestChromeTraceEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	rec, smp := flightFixture(t)
	_, ts := newTestServer(t, Config{Source: p, Flight: rec, Sampler: smp})

	code, body := get(t, ts.URL+"/trace.chrome")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var trace struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("trace.chrome is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range trace.Events {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 16 {
		t.Errorf("complete events = %d, want 16", complete)
	}
	if meta == 0 {
		t.Error("no metadata (track name) events")
	}
}

func TestSpansEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	rec, _ := flightFixture(t)
	_, ts := newTestServer(t, Config{Source: p, Flight: rec})

	code, body := get(t, ts.URL+"/spans")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 16 {
		t.Fatalf("spans = %d, want 16", len(lines))
	}
	var sp flight.Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil {
		t.Fatalf("span line invalid: %v", err)
	}
	if sp.Stage == "" || sp.Packets != 32 {
		t.Errorf("span = %+v", sp)
	}

	_, body = get(t, ts.URL+"/spans?n=4")
	if got := len(strings.Split(strings.TrimSpace(string(body)), "\n")); got != 4 {
		t.Errorf("?n=4 returned %d spans", got)
	}
}

// TestLiveSpansEndpoint serves the spans of a real pipeline: with Metrics on,
// every element an observed batch visits records an nf:<element> span and
// the collector a release span, and ?n= keeps only the tail of that stream.
func TestLiveSpansEndpoint(t *testing.T) {
	p, rec, finish := runPipeline(t)
	finish()
	_, ts := newTestServer(t, Config{Source: p, Flight: rec})

	code, body := get(t, ts.URL+"/spans")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	stages := map[string]int{}
	for i, line := range lines {
		var sp flight.Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %d invalid: %v", i, err)
		}
		if !flight.Observed(sp.Batch) {
			t.Errorf("span of unobserved batch %d on %s", sp.Batch, sp.Stage)
		}
		stages[sp.Stage]++
	}
	observed := 0
	for id := uint64(0); id < 50; id++ {
		if flight.Observed(id) {
			observed++
		}
	}
	if stages[flight.StageRelease] != observed {
		t.Errorf("release spans = %d, want one per observed batch (%d)", stages[flight.StageRelease], observed)
	}
	for _, e := range p.Snapshot().Elements {
		if stages["nf:"+e.Name] != observed {
			t.Errorf("nf:%s spans = %d, want %d (got stages %v)", e.Name, stages["nf:"+e.Name], observed, stages)
		}
	}

	_, body = get(t, ts.URL+"/spans?n=3")
	tail := strings.Split(strings.TrimSpace(string(body)), "\n")
	if want := lines[len(lines)-3:]; strings.Join(tail, "\n") != strings.Join(want, "\n") {
		t.Errorf("?n=3 served\n%s\nwant the tail\n%s", strings.Join(tail, "\n"), strings.Join(want, "\n"))
	}
}

func TestBottleneckEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	rec, smp := flightFixture(t)
	_, ts := newTestServer(t, Config{Source: p, Flight: rec, Sampler: smp})

	code, body := get(t, ts.URL+"/bottleneck")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var rep flight.BottleneckReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Limiting != flight.StageRead {
		t.Errorf("limiting = %q, want %q", rep.Limiting, flight.StageRead)
	}
	if len(rep.Stages) == 0 {
		t.Error("report has no stage verdicts")
	}

	code, body = get(t, ts.URL+"/bottleneck?format=text")
	if code != 200 {
		t.Fatalf("text status = %d", code)
	}
	if !strings.Contains(string(body), "limiting stage") {
		t.Errorf("text report missing verdict line: %s", body)
	}
}

func TestMetricsIncludesFlightAndGoRuntime(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	rec, smp := flightFixture(t)
	_, ts := newTestServer(t, Config{Source: p, Flight: rec, Sampler: smp})

	_, body := get(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"nfcompass_flight_spans_total",
		"nfcompass_flight_stage_busy_ns_total",
		`nfcompass_flight_drops_total{reason="inject-refused",stage="inject"} 3`,
		"nfcompass_flight_queue_depth",
		"nfcompass_flight_stage_utilization",
		"nfcompass_go_goroutines",
		"nfcompass_go_heap_bytes",
		"nfcompass_go_gc_pause_p99_seconds",
		"nfcompass_go_sched_latency_p99_seconds",
		"nfcompass_go_gc_cycles_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := stats.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

func TestFlightEndpointsWithoutRecorder(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	_, ts := newTestServer(t, Config{Source: p})

	code, body := get(t, ts.URL+"/trace.chrome")
	if code != 200 {
		t.Fatalf("trace.chrome status = %d", code)
	}
	var trace struct {
		Events []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &trace); err != nil {
		t.Fatalf("empty trace.chrome invalid: %v", err)
	}
	if len(trace.Events) != 0 {
		t.Errorf("expected no events, got %d", len(trace.Events))
	}

	code, body = get(t, ts.URL+"/spans")
	if code != 200 || strings.TrimSpace(string(body)) != "" {
		t.Errorf("spans = %d %q, want empty 200", code, body)
	}

	code, body = get(t, ts.URL+"/bottleneck")
	if code != 200 {
		t.Fatalf("bottleneck status = %d", code)
	}
	var rep flight.BottleneckReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Limiting != "" {
		t.Errorf("limiting = %q, want empty", rep.Limiting)
	}
}
