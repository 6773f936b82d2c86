package dataplane

import (
	"context"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/netpkt"
)

// delay sleeps a fixed duration per batch, giving the processing-time
// histogram a known distribution to validate percentiles against.
type delay struct {
	name string
	d    time.Duration
}

func (e *delay) Name() string { return e.name }
func (e *delay) Traits() element.Traits {
	return element.Traits{Kind: "Delay", Class: element.ClassModifier}
}
func (e *delay) NumOutputs() int   { return 1 }
func (e *delay) Signature() string { return "Delay" }
func (e *delay) Process(b *netpkt.Batch) []*netpkt.Batch {
	time.Sleep(e.d)
	return []*netpkt.Batch{b}
}

func linearGraph(mid ...element.Element) *element.Graph {
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	for _, el := range mid {
		id := g.Add(el)
		g.MustConnect(prev, 0, id)
		prev = id
	}
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(prev, 0, dst)
	return g
}

// The acceptance-criteria test: Snapshot must report exact per-element
// packet counts and plausible latency percentiles for known traffic.
func TestSnapshotKnownTraffic(t *testing.T) {
	const batches, perBatch = 40, 16
	g := linearGraph(element.NewCheckIPHeader("chk"), element.NewDecTTL("ttl"))
	in := genBatches(batches, perBatch, 7)
	observed := uint64(observedIDs(in))
	_, p, err := RunBatches(context.Background(), g,
		Config{Metrics: true, PreserveOrder: true}, in)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if !rep.MetricsEnabled {
		t.Fatal("metrics not enabled in report")
	}
	if rep.InPackets != batches*perBatch || rep.OutPackets != batches*perBatch {
		t.Fatalf("boundary packets = %d/%d", rep.InPackets, rep.OutPackets)
	}
	if len(rep.Elements) != 4 {
		t.Fatalf("elements = %d", len(rep.Elements))
	}
	for _, e := range rep.Elements {
		if e.Batches != batches {
			t.Errorf("%s: batches = %d, want %d", e.Name, e.Batches, batches)
		}
		if e.PktsIn != batches*perBatch || e.PktsOut != batches*perBatch {
			t.Errorf("%s: pkts = %d/%d, want %d", e.Name, e.PktsIn, e.PktsOut, batches*perBatch)
		}
		if e.Drops != 0 {
			t.Errorf("%s: drops = %d", e.Name, e.Drops)
		}
		if e.Proc.Count != observed || observed < 2 {
			t.Errorf("%s: histogram count = %d, want the %d observed batches", e.Name, e.Proc.Count, observed)
		}
		p50, p99 := e.Proc.Percentile(50), e.Proc.Percentile(99)
		if p50 <= 0 || p99 < p50 || e.Proc.Max < p99 {
			t.Errorf("%s: percentile order violated: p50=%g p99=%g max=%g",
				e.Name, p50, p99, e.Proc.Max)
		}
		if e.QueueCap != 16 { // default QueueDepth
			t.Errorf("%s: queue cap = %d", e.Name, e.QueueCap)
		}
	}
	// Every edge of the linear chain carried every live packet.
	if len(rep.Edges) != 3 {
		t.Fatalf("edges = %d", len(rep.Edges))
	}
	for _, ed := range rep.Edges {
		if ed.Packets != batches*perBatch {
			t.Errorf("edge %v: packets = %d", ed.EdgeKey, ed.Packets)
		}
	}
}

// A known per-batch delay must show up in that element's percentiles.
func TestSnapshotLatencyPercentiles(t *testing.T) {
	const sleep = 2 * time.Millisecond
	g := linearGraph(&delay{name: "slow", d: sleep})
	_, p, err := RunBatches(context.Background(), g,
		Config{Metrics: true}, genBatches(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	var slow *ElementStats
	rep := p.Snapshot()
	for i := range rep.Elements {
		if rep.Elements[i].Name == "slow" {
			slow = &rep.Elements[i]
		}
	}
	if slow == nil {
		t.Fatal("slow element missing from report")
	}
	p50 := slow.Proc.Percentile(50)
	if p50 < float64(sleep.Nanoseconds())/2 || p50 > 100*float64(sleep.Nanoseconds()) {
		t.Fatalf("p50 = %gns, want around %dns", p50, sleep.Nanoseconds())
	}
	if slow.NsPerPkt() <= 0 {
		t.Fatal("NsPerPkt must be positive for the delay element")
	}
}

// Counters stay exact on every batch; processing time is clocked on the
// batches the observation rule selects, the same ones on every element.
func TestSnapshotObservedTiming(t *testing.T) {
	const batches, perBatch = 64, 8
	in := genBatches(batches, perBatch, 15)
	observed := uint64(observedIDs(in))
	if observed == 0 || observed > batches/8 {
		t.Fatalf("rule observes %d of %d batch IDs, want about 1 in %d", observed, batches, flight.Period())
	}
	g := linearGraph(element.NewDecTTL("ttl"))
	_, p, err := RunBatches(context.Background(), g, Config{Metrics: true}, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Snapshot().Elements {
		if e.PktsIn != batches*perBatch || e.Batches != batches {
			t.Errorf("%s: counters must stay exact: pkts=%d batches=%d", e.Name, e.PktsIn, e.Batches)
		}
		if e.Proc.Count != observed {
			t.Errorf("%s: timed batches = %d, want %d", e.Name, e.Proc.Count, observed)
		}
		if e.ProcPkts != observed*perBatch {
			t.Errorf("%s: timed pkts = %d, want %d", e.Name, e.ProcPkts, observed*perBatch)
		}
		if e.NsPerPkt() <= 0 {
			t.Errorf("%s: ns/pkt = %g", e.Name, e.NsPerPkt())
		}
	}
}

func TestSnapshotDropAccounting(t *testing.T) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	disc := g.Add(element.NewDiscard("disc"))
	g.MustConnect(src, 0, disc)
	_, p, err := RunBatches(context.Background(), g,
		Config{Metrics: true}, genBatches(5, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	for _, e := range rep.Elements {
		if e.Name == "disc" {
			if e.Drops != 40 || e.PktsIn != 40 || e.PktsOut != 0 {
				t.Fatalf("discard stats: in=%d out=%d drops=%d", e.PktsIn, e.PktsOut, e.Drops)
			}
		}
	}
	if rep.DropPackets != 40 || rep.OutPackets != 0 {
		t.Fatalf("boundary drop accounting: drop=%d out=%d", rep.DropPackets, rep.OutPackets)
	}
}

func TestSnapshotMetricsOff(t *testing.T) {
	g := testChainGraph()
	_, p, err := RunBatches(context.Background(), g, Config{}, genBatches(3, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.MetricsEnabled {
		t.Fatal("metrics should be off")
	}
	if rep.InPackets != 12 {
		t.Fatalf("boundary totals must still work: in=%d", rep.InPackets)
	}
	if !strings.Contains(rep.String(), "disabled") {
		t.Fatal("String must flag disabled metrics")
	}
}

func TestWritePrometheus(t *testing.T) {
	g := linearGraph(element.NewDecTTL("ttl"))
	_, p, err := RunBatches(context.Background(), g,
		Config{Metrics: true}, genBatches(4, 8, 12))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	p.Snapshot().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"nfcompass_dataplane_in_packets_total 32",
		"nfcompass_dataplane_out_packets_total 32",
		`nfcompass_dataplane_element_packets_total{dir="in",element="ttl",kind="DecTTL"} 32`,
		`nfcompass_dataplane_element_process_ns_count{element="ttl",kind="DecTTL"} 1`, // ID 0 of 0..3 is observed
		`le="+Inf"`,
		"# TYPE nfcompass_dataplane_element_process_ns histogram",
		"nfcompass_dataplane_edge_packets_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

// Snapshot must be safe while the pipeline is actively running.
func TestSnapshotWhileRunning(t *testing.T) {
	g := linearGraph(&delay{name: "slow", d: 200 * time.Microsecond})
	p, err := New(g, Config{Metrics: true, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Out() {
		}
	}()
	snaps := make(chan struct{})
	go func() {
		defer close(snaps)
		for i := 0; i < 50; i++ {
			rep := p.Snapshot()
			_ = rep.String()
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for _, b := range genBatches(30, 8, 14) {
		p.In() <- b
	}
	p.CloseInput()
	<-done
	<-snaps
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := p.Snapshot()
	if rep.OutPackets != 30*8 {
		t.Fatalf("out packets = %d", rep.OutPackets)
	}
}
