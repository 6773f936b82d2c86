package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/ingress"
	"nfcompass/internal/nf"
	"nfcompass/internal/stats"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func chainGraph(t *testing.T) *element.Graph {
	t.Helper()
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	g, _, _ := nf.BuildChain([]*nf.NF{
		nf.NewIPv4Router("r", trie.BuildDir24_8(&tr), "dp"),
		nf.NewNAT("nat", 0x01020304),
	})
	return g
}

// runPipeline starts the chain with Metrics and a flight recorder on, injects
// 50 batches of 32 packets and returns the pipeline, its recorder and the
// drain.
func runPipeline(t *testing.T) (*dataplane.Pipeline, *flight.Recorder, func()) {
	t.Helper()
	g := chainGraph(t)
	rec := flight.New(flight.Config{})
	p, err := dataplane.New(g, dataplane.Config{
		Metrics: true, PreserveOrder: true, Flight: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	done := make(chan struct{})
	go func() {
		for range p.Out() {
		}
		close(done)
	}()
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: 7})
	for _, b := range gen.Batches(50, 32) {
		p.In() <- b
	}
	finish := func() {
		p.CloseInput()
		<-done
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return p, rec, finish
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestMetricsEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()

	journal := core.NewDecisionJournal(8)
	_, ts := newTestServer(t, Config{Source: p, Journal: journal})

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"nfcompass_dataplane_in_packets_total 1600",
		`nfc_e2e_latency_ns{quantile="0.99"}`,
		`element="r#0/rt"`,
		"nfcompass_dataplane_element_packets_total{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := stats.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	_, ts := newTestServer(t, Config{Source: p})

	code, body := get(t, ts.URL+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var rep dataplane.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.InPackets != 1600 || rep.OutPackets != 1600 {
		t.Errorf("in/out = %d/%d, want 1600/1600", rep.InPackets, rep.OutPackets)
	}
	if rep.E2E.Count == 0 {
		t.Error("snapshot has no e2e latency samples")
	}
	if len(rep.Elements) == 0 {
		t.Error("snapshot has no element stats")
	}
}

func TestHealthzLifecycle(t *testing.T) {
	p, _, finish := runPipeline(t)
	_, ts := newTestServer(t, Config{Source: p, Done: p.Done()})

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("live status = %d body=%s", code, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Backpressure < 0 || h.Backpressure > 1 {
		t.Errorf("backpressure = %v out of [0,1]", h.Backpressure)
	}

	finish()
	<-p.Done()
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("drained status = %d body=%s", code, body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "stopped" {
		t.Errorf("drained status field = %q", h.Status)
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()

	journal := core.NewDecisionJournal(4)
	journal.Record(core.Decision{Reason: "primed", Threshold: 0.25})
	journal.Record(core.Decision{Accepted: true, Reason: "reallocated",
		Drift: 0.8, Threshold: 0.25, Candidate: "model",
		PredictedCostNs: 1234, MeasuredGbps: 9.5, Epoch: 1})
	_, ts := newTestServer(t, Config{Source: p, Journal: journal})

	code, body := get(t, ts.URL+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var got struct {
		Total   uint64          `json:"total"`
		Entries []core.Decision `json:"entries"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 2 || len(got.Entries) != 2 {
		t.Fatalf("total=%d entries=%d", got.Total, len(got.Entries))
	}
	if !got.Entries[1].Accepted || got.Entries[1].Candidate != "model" {
		t.Errorf("entry[1] = %+v", got.Entries[1])
	}
	if got.Entries[0].Seq != 1 || got.Entries[1].Seq != 2 {
		t.Errorf("seq = %d,%d", got.Entries[0].Seq, got.Entries[1].Seq)
	}

	// Nil journal serves an empty collection.
	_, ts2 := newTestServer(t, Config{Source: p})
	code, body = get(t, ts2.URL+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("nil-journal status = %d", code)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 0 || len(got.Entries) != 0 {
		t.Errorf("nil journal: total=%d entries=%d", got.Total, len(got.Entries))
	}
}

func TestPprofEndpoint(t *testing.T) {
	p, _, finish := runPipeline(t)
	finish()
	_, ts := newTestServer(t, Config{Source: p})
	code, body := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: code=%d", code)
	}
}

func TestStartShutdownAndRefresh(t *testing.T) {
	p, _, finish := runPipeline(t)
	journal := core.NewDecisionJournal(4)
	s, err := New(Config{Source: p, Done: p.Done(),
		Journal: journal, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	code, _ := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	finish()
	<-p.Done()
	// The refresher takes a final snapshot when Done closes; poll until the
	// cached report shows the full totals.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var h Health
		code, body := get(t, base+"/healthz")
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if code == http.StatusServiceUnavailable && h.InPackets == 1600 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final snapshot not published: code=%d health=%+v", code, h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still reachable after Shutdown")
	}
}

func TestNewRequiresSource(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil Source")
	}
}

// The server works against a sharded pipeline through the same Snapshotter
// interface: aggregated counters and the boundary e2e latency show up in
// /metrics, and Done() drives /healthz.
func TestShardedSource(t *testing.T) {
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: 3})
	sp, err := dataplane.NewSharded(
		func(int) (*element.Graph, error) { return chainGraph(t), nil },
		dataplane.ShardedConfig{Shards: 3, Config: dataplane.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sp.Out() {
		}
	}()
	nic := ingress.NewNIC(sp.NumShards())
	for _, b := range gen.Batches(40, 32) {
		if !nic.Steer(ctx, sp, b) {
			t.Fatal("Steer refused a batch on a live pipeline")
		}
	}
	sp.CloseInput()
	<-drained
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Source: sp, Done: sp.Done()})
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	text := string(body)
	if !strings.Contains(text, "nfcompass_dataplane_in_packets_total 1280") {
		t.Errorf("sharded boundary totals missing from metrics")
	}
	if !strings.Contains(text, `nfc_e2e_latency_ns{quantile="0.99"}`) {
		t.Errorf("sharded e2e latency summary missing from metrics")
	}
	if err := stats.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}

	code, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("drained sharded healthz = %d", code)
	}
}
