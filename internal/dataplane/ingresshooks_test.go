package dataplane

// Tests for the ingress-plane hooks: ShardedPipeline.InjectShard (the
// per-queue entry) and Config.PinOSThread (OS-thread pinning of element
// goroutines).

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

func linearBuild(int) (*element.Graph, error) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	cnt := g.Add(element.NewCounter("cnt"))
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, cnt)
	g.MustConnect(cnt, 0, dst)
	return g, nil
}

// TestInjectShardDirect: the per-queue path must deliver everything with
// per-flow order intact and account every packet at the replicas' boundaries.
func TestInjectShardDirect(t *testing.T) {
	const shards, flows, batches, perBatch = 4, 12, 40, 8
	sp, err := NewSharded(linearBuild, ShardedConfig{
		Shards: shards,
		Config: Config{QueueDepth: 2, Metrics: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)

	var outs []*netpkt.Batch
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for b := range sp.Out() {
			outs = append(outs, b)
		}
	}()

	// Single-flow batches so each whole batch has one owning queue; the
	// queue choice is flow-determined, mirroring RSS.
	next := make([]uint32, flows)
	id := uint64(0)
	for i := 0; i < batches; i++ {
		f := i % flows
		pkts := make([]*netpkt.Packet, perBatch)
		for j := range pkts {
			payload := make([]byte, 8)
			binary.BigEndian.PutUint32(payload[0:4], uint32(f))
			binary.BigEndian.PutUint32(payload[4:8], next[f])
			next[f]++
			pkts[j] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
				SrcIP: netpkt.IPv4Addr(0x0a000000 | uint32(f)), DstIP: 0x0a000001,
				SrcPort: uint16(1000 + f), DstPort: 80,
				Payload: payload, FlowID: uint64(f + 1),
			})
		}
		b := netpkt.NewBatch(id, pkts)
		id++
		if !sp.InjectShard(ctx, f%shards, b) {
			t.Fatal("InjectShard rejected a batch")
		}
	}
	sp.CloseInput()
	<-collectDone
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}

	if seen := checkFlowOrder(t, outs); seen != batches*perBatch {
		t.Fatalf("saw %d packets, want %d", seen, batches*perBatch)
	}
	rep := sp.Snapshot()
	if got := rep.InPackets; got != batches*perBatch {
		t.Fatalf("boundary InPackets = %d, want %d", got, batches*perBatch)
	}
	if got := rep.OutPackets; got != batches*perBatch {
		t.Fatalf("boundary OutPackets = %d, want %d", got, batches*perBatch)
	}
}

// TestInjectShardRefusedBooksNothing: an injection the shard refuses must
// leave no trace in the boundary totals, so the snapshot still conserves
// packets (in == out + drop) after a refusal.
func TestInjectShardRefusedBooksNothing(t *testing.T) {
	sp, err := NewSharded(linearBuild, ShardedConfig{Shards: 1, Config: Config{QueueDepth: 1, Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	bs := genBatches(2, 16, 9)
	// Unstarted, the shard's one-slot input takes the first batch and
	// nothing reads it, so the second waits out its deadline.
	if !sp.InjectShard(context.Background(), 0, bs[0]) {
		t.Fatal("first batch refused by an empty input")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if sp.InjectShard(ctx, 0, bs[1]) {
		t.Fatal("second batch taken by a full input")
	}
	sp.Start(context.Background())
	go func() {
		for range sp.Out() {
		}
	}()
	sp.CloseInput()
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := sp.Snapshot()
	if rep.InBatches != 1 || rep.InPackets != 16 {
		t.Fatalf("in=%d/%d out=%d/%d, want in=1/16: the refused batch was booked",
			rep.InBatches, rep.InPackets, rep.OutBatches, rep.OutPackets)
	}
	if rep.InPackets != rep.OutPackets+rep.DropPackets {
		t.Fatalf("in=%d out=%d drop=%d: packets not conserved", rep.InPackets, rep.OutPackets, rep.DropPackets)
	}
}

// TestPinOSThreadSmoke: pinning element goroutines to OS threads must not
// change results — same outputs, pipelines drain cleanly.
func TestPinOSThreadSmoke(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			outs, _ := runSharded(t, linearBuild,
				ShardedConfig{Shards: shards, Config: Config{PinOSThread: true, QueueDepth: 2}},
				seqTraffic(5, 16, 8))
			seen := 0
			for _, b := range outs {
				seen += b.Len()
			}
			if seen != 16*8 {
				t.Fatalf("saw %d packets, want %d", seen, 16*8)
			}
		})
	}
}
