package core

// Live-adaptation tests: the Adaptor attached to a running (sharded)
// dataplane must hot-swap its re-allocations onto the pipeline — the
// end-to-end profile → allocate → execute loop.

import (
	"context"
	"strings"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// TestAdaptorDrivesShardedPipeline: a content shift observed mid-traffic
// re-allocates AND applies the new assignment to every replica of a running
// sharded pipeline, with zero packet loss; the next Snapshot reflects the
// new placement.
func TestAdaptorDrivesShardedPipeline(t *testing.T) {
	d := adaptDeployment(t)

	// Each replica gets its own stateful element instances from the
	// deployment's plan; the adaptor executes d.Graph, which no replica runs.
	sp, err := dataplane.NewSharded(d.Build, dataplane.ShardedConfig{
		Shards: 2,
		Config: dataplane.Config{QueueDepth: 4, Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for range sp.Out() {
		}
	}()
	// The NIC steers each flow to one replica; IDs stay unique across the
	// bursts for the latency probe.
	nic := ingress.NewNIC(sp.NumShards())
	var nextID uint64
	inject := func(bs []*netpkt.Batch) {
		for _, b := range bs {
			b.ID = nextID
			nextID++
			if !nic.Steer(ctx, sp, b) {
				t.Fatal("Steer refused a batch on a live pipeline")
			}
		}
	}

	a := NewAdaptor(d)
	a.Attach(sp)

	// First traffic burst under the initial (benign-tuned) placement.
	inject(idsSample(traffic.PayloadFullMatch, 30, 4))
	before := sp.Snapshot()
	if before.Offload.Swaps != 0 {
		t.Fatalf("swaps before adaptation = %d", before.Offload.Swaps)
	}

	// Prime with the benign profile, then observe the content shift: the
	// adaptor must re-allocate and hot-swap the running pipeline.
	if _, err := a.Observe(idsSample(traffic.PayloadRandom, 31, 4)); err != nil {
		t.Fatal(err)
	}
	changed, err := a.Observe(idsSample(traffic.PayloadFullMatch, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !changed || a.Reallocations != 1 {
		t.Fatalf("changed=%v reallocations=%d: content shift must re-allocate",
			changed, a.Reallocations)
	}

	// Second burst under the swapped placement, then drain.
	inject(idsSample(traffic.PayloadFullMatch, 33, 4))
	sp.CloseInput()
	<-collected
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}

	// Zero loss across the swap.
	if rep := sp.Snapshot(); rep.InPackets != rep.OutPackets || rep.InPackets == 0 {
		t.Fatalf("packets in=%d out=%d across live adaptation", rep.InPackets, rep.OutPackets)
	}

	// The new assignment is visible in the next Snapshot: every replica
	// swapped once, the epoch advanced, and the deployment's offloaded
	// elements report non-CPU placements.
	rep := sp.Snapshot()
	if rep.Offload.Swaps != 2 {
		t.Fatalf("aggregated swaps = %d, want 2 (one per replica)", rep.Offload.Swaps)
	}
	if rep.Offload.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", rep.Offload.Epoch)
	}
	offloaded := 0
	for id, pl := range d.Assignment {
		if pl.Mode == hetsim.ModeCPU {
			continue
		}
		offloaded++
		got := rep.Elements[int(id)].Placement
		if got == "cpu" {
			t.Errorf("element %d assigned mode %v but snapshot still reports %q",
				id, pl.Mode, got)
		}
		if pl.Mode == hetsim.ModeSplit && !strings.HasPrefix(got, "split") {
			t.Errorf("element %d: split assignment reported as %q", id, got)
		}
	}
	if offloaded == 0 {
		t.Fatal("adapted assignment offloads nothing; test exercises no placement")
	}
	if rep.Offload.OffloadedBatches == 0 {
		t.Fatal("no batches executed through the device backend after hot-swap")
	}
}
