package dataplane

import (
	"context"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/netpkt"
)

// observedIDs counts the batches the observation rule selects.
func observedIDs(in []*netpkt.Batch) int {
	n := 0
	for _, b := range in {
		if flight.Observed(b.ID) {
			n++
		}
	}
	return n
}

// TestPipelineFlightSpans: a metrics-on pipeline with a recorder attached
// records one release span and one span per element for every observed
// batch, and exposes its inbox through a shard queue probe.
func TestPipelineFlightSpans(t *testing.T) {
	rec := flight.New(flight.Config{})
	g := testChainGraph()
	in := genBatches(30, 32, 5)
	observed := observedIDs(in)
	outs, _, err := RunBatches(context.Background(), g,
		Config{Metrics: true, PreserveOrder: true, Flight: rec}, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 30 {
		t.Fatalf("out batches = %d", len(outs))
	}

	var release, elems int
	stages := map[string]bool{}
	for _, s := range rec.Spans() {
		stages[s.Stage] = true
		switch {
		case s.Stage == flight.StageRelease:
			release++
		case len(s.Stage) > 3 && s.Stage[:3] == "nf:":
			elems++
		}
	}
	if release != observed || observed == 0 {
		t.Errorf("release spans = %d, want one per observed batch (%d); stages %v", release, observed, stages)
	}
	if elems != observed*g.Len() {
		t.Errorf("element spans = %d, want one per element per observed batch (%d)", elems, observed*g.Len())
	}

	var sawShardProbe bool
	for _, s := range rec.Samples() {
		if s.Stage == flight.StageShard && s.HasQueue {
			sawShardProbe = true
			if s.QueueCap <= 0 {
				t.Errorf("shard probe capacity = %d", s.QueueCap)
			}
		}
	}
	if !sawShardProbe {
		t.Error("no shard inbox queue probe registered")
	}
}

// TestShardedFlightSpans: the sharded pipeline assigns each replica its
// shard index as the flight lane and probes every shard inbox.
func TestShardedFlightSpans(t *testing.T) {
	rec := flight.New(flight.Config{})
	build := func(int) (*element.Graph, error) { return testChainGraph(), nil }
	const shards = 3
	outs, _ := runSharded(t, build, ShardedConfig{
		Shards: shards,
		Config: Config{Metrics: true, Flight: rec},
	}, genBatches(200, 32, 7))
	if len(outs) == 0 {
		t.Fatal("no output batches")
	}

	lanes := map[string]map[int]bool{}
	for _, s := range rec.Spans() {
		if lanes[s.Stage] == nil {
			lanes[s.Stage] = map[int]bool{}
		}
		lanes[s.Stage][s.Lane] = true
	}
	if got := len(lanes[flight.StageRelease]); got != shards {
		t.Errorf("release spans on %d lanes, want one per shard (%d)", got, shards)
	}

	probes := map[string]int{}
	for _, s := range rec.Samples() {
		if s.HasQueue {
			probes[s.Stage]++
		}
	}
	if probes[flight.StageShard] != shards {
		t.Errorf("shard inbox probes = %d, want %d", probes[flight.StageShard], shards)
	}
}
