package ingress

import (
	"context"
	"sync"
	"testing"
	"time"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/traffic"
)

// counterBuild is src → counter → dst: every batch leaves under the header
// and with the packets it entered with, in order.
func counterBuild(int) (*element.Graph, error) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	cnt := g.Add(element.NewCounter("cnt"))
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, cnt)
	g.MustConnect(cnt, 0, dst)
	return g, nil
}

// steerRun starts a ShardOut pipeline over counterBuild, steers batches into
// it, drains it and returns every shard's output batches in arrival order.
func steerRun(t *testing.T, nic *NIC, batches []*netpkt.Batch) [][]*netpkt.Batch {
	t.Helper()
	sp, err := dataplane.NewSharded(counterBuild, dataplane.ShardedConfig{
		Shards: nic.Queues(), Config: dataplane.Config{QueueDepth: 4}, ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	got := make([][]*netpkt.Batch, nic.Queues())
	var wg sync.WaitGroup
	for q := range got {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for b := range sp.OutShard(q) {
				got[q] = append(got[q], b)
			}
		}(q)
	}
	for _, b := range batches {
		if !nic.Steer(ctx, sp, b) {
			t.Fatal("Steer refused a batch on a live pipeline")
		}
	}
	sp.CloseInput()
	wg.Wait()
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestNICSteer: Steer lands in-memory batches where the NIC's queues would
// put the same packets — each shard's stream is exactly NIC.Queue's
// partition of the input, in input order, so per-flow order holds — passes
// a one-queue batch through under its own header, and on refusal releases
// every packet it did not inject.
func TestNICSteer(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	const shards = 4

	t.Run("partition", func(t *testing.T) {
		nic := NewNIC(shards)
		batches := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Flows: 64, Seed: 101}).Batches(50, 16)
		want := make([][]*netpkt.Packet, shards)
		for _, b := range batches {
			for _, p := range b.Packets {
				q := nic.rss.Queue(p)
				want[q] = append(want[q], p)
			}
		}
		got := steerRun(t, nic, batches)
		for q := range want {
			var stream []*netpkt.Packet
			for _, b := range got[q] {
				stream = append(stream, b.Packets...)
			}
			if len(stream) != len(want[q]) {
				t.Fatalf("shard %d received %d packets, its queue owns %d", q, len(stream), len(want[q]))
			}
			for i := range stream {
				if stream[i] != want[q][i] {
					t.Fatalf("shard %d packet %d is not its queue's packet %d in input order", q, i, i)
				}
			}
		}
	})

	t.Run("one-queue", func(t *testing.T) {
		nic := NewNIC(shards)
		var pkts []*netpkt.Packet
		q := -1
		for _, p := range traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Flows: 64, Seed: 103}).NextBatch(64).Packets {
			if q < 0 {
				q = nic.rss.Queue(p)
			}
			if nic.rss.Queue(p) == q {
				pkts = append(pkts, p)
			}
		}
		b := netpkt.NewBatch(7, pkts)
		got := steerRun(t, nic, []*netpkt.Batch{b})
		for s := range got {
			want := 0
			if s == q {
				want = 1
			}
			if len(got[s]) != want {
				t.Fatalf("shard %d emitted %d batches, want %d", s, len(got[s]), want)
			}
		}
		if got[q][0] != b {
			t.Fatal("a one-queue batch was split or re-headered")
		}
	})

	t.Run("refused", func(t *testing.T) {
		nic := NewNIC(shards)
		arena := netpkt.NewArena()
		tmpl := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Flows: 64, Seed: 107}).NextBatch(32)
		sp, err := dataplane.NewSharded(counterBuild, dataplane.ShardedConfig{
			Shards: shards, Config: dataplane.Config{QueueDepth: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if nic.Steer(cancelled, sp, arena.ClonePooled(tmpl)) {
			t.Fatal("Steer on a cancelled context returned true")
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d packets outstanding after a refused Steer", n)
		}

		// The pipeline is not started yet: the first batch fills every
		// shard input it touches, so the same spread again blocks on its
		// first part until the deadline and must give back all its parts.
		if !nic.Steer(context.Background(), sp, arena.ClonePooled(tmpl)) {
			t.Fatal("Steer refused a batch the shard inputs had room for")
		}
		ctx, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer stop()
		if nic.Steer(ctx, sp, arena.ClonePooled(tmpl)) {
			t.Fatal("Steer into full shard inputs returned true")
		}
		if n, want := arena.Outstanding(), int64(tmpl.Len()); n != want {
			t.Fatalf("%d packets outstanding, want only the injected batch's %d", n, want)
		}
		sp.Start(context.Background())
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for b := range sp.Out() {
				b.Release()
			}
		}()
		sp.CloseInput()
		<-drained
		if err := sp.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d packets outstanding after the drain", n)
		}
	})
}

// TestShardedRejectsPreserveOrder: each shard would re-sequence by batch ID
// over IDs it may never see and silently hold the rest, so NewSharded
// refuses PreserveOrder. Without it, the shape the continuous run takes at
// its smallest batch size — 4 shards, 16-packet batches over 256 flows,
// steered by flow — conserves every packet.
func TestShardedRejectsPreserveOrder(t *testing.T) {
	const shards, batches, perBatch = 4, 200, 16
	cfg := dataplane.ShardedConfig{Shards: shards, Config: dataplane.Config{Metrics: true, PreserveOrder: true}}
	if _, err := dataplane.NewSharded(chainBuild, cfg); err == nil {
		t.Fatal("NewSharded accepted PreserveOrder")
	}
	cfg.PreserveOrder = false
	sp, err := dataplane.NewSharded(chainBuild, cfg)
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
	nic := NewNIC(shards)
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Flows: 256, Seed: 109})
	for _, b := range gen.Batches(batches, perBatch) {
		if !nic.Steer(ctx, sp, b) {
			t.Fatal("Steer refused a batch on a live pipeline")
		}
	}
	sp.CloseInput()
	<-drained
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep := sp.Snapshot(); rep.InPackets != batches*perBatch || rep.OutPackets != rep.InPackets {
		t.Fatalf("InPackets=%d OutPackets=%d, want %d both", rep.InPackets, rep.OutPackets, batches*perBatch)
	}
}
