package flight

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfcompass/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder hand-builds a deterministic recorder exercising every
// family WritePrometheus emits, with stage and reason values containing
// every character the exposition format requires escaping.
func goldenRecorder() *Recorder {
	r := newRecorder(8)
	// Three batches cross every lane; the rule observes ID 0 of them, so
	// the exact and the observed series differ.
	read := r.Lane(StageRead, 0)
	rx := r.Lane(StageRX, 1)
	el := r.Lane(`nf:back\slash`, 0)
	for id := uint64(0); id < 3; id++ {
		rx.Observe(id)
		el.Observe(id)
		if !read.Observe(id) {
			continue
		}
		read.Span(id, 64, 1000, 2000)
		read.AddBusy(900)
		read.AddStall(100)
		rx.Span(id, 64, 2000, 2500)
		rx.AddBusy(450)
		el.Span(id, 64, 2500, 2600)
		el.AddBusy(100)
	}
	r.Lane("nf:quo\"ted", 0).AddBusy(50)
	r.AddQueue(StageRing, 0, func() (int, int) { return 5, 64 })
	r.AddQueue(StageShard, 1, func() (int, int) { return 2, 16 })
	lg := r.Ledger()
	lg.Add(StageInject, ReasonInjectRefused, 12)
	lg.Add(StageRead, ReasonCtxCanceled, 3)
	lg.Add("nf:line\nfeed", "odd\"reason", 1)
	return r
}

// The recorder exposition is golden-file pinned (regenerate with `go test
// -run TestFlightPrometheusGolden -update ./internal/flight`) and must
// pass the minimal format validator.
func TestFlightPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().WritePrometheus(&buf)

	if err := stats.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}

	golden := filepath.Join("testdata", "flight.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden (run with -update to regenerate)\n--- got ---\n%s\n--- want ---\n%s",
			buf.String(), string(want))
	}
}

// Escape-worthy {stage, reason} values must round-trip into legal label
// values.
func TestFlightPrometheusEscaping(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`stage="nf:back\\slash"`,
		`stage="nf:quo\"ted"`,
		`stage="nf:line\nfeed"`,
		`reason="odd\"reason"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing escaped label %s", want)
		}
	}
	if strings.Contains(text, "line\nfeed\"") {
		t.Error("raw newline leaked into a label value")
	}
}

// Every emitted family must carry a HELP and TYPE preamble before its
// first sample.
func TestFlightPrometheusHeaders(t *testing.T) {
	var buf bytes.Buffer
	goldenRecorder().WritePrometheus(&buf)

	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if !seen[name] && !seen[base] {
			t.Errorf("sample %q emitted before its TYPE header", name)
		}
	}
	for _, fam := range []string{
		"nfcompass_flight_spans_total",
		"nfcompass_flight_observed_batches_total",
		"nfcompass_flight_stage_packets_total",
		"nfcompass_flight_stage_busy_ns_total",
		"nfcompass_flight_stage_stall_ns_total",
		"nfcompass_flight_queue_depth",
		"nfcompass_flight_queue_capacity",
		"nfcompass_flight_drops_total",
	} {
		if !seen[fam] {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
}
