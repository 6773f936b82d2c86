package dataplane

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"nfcompass/internal/element"
)

// TestShardedShardOutAccounting: with ShardOut on, every injected packet
// surfaces on exactly one per-shard output channel, the aggregated stats
// match the merged-output mode's accounting, and the merged channel closes
// empty (nothing is double-delivered).
func TestShardedShardOutAccounting(t *testing.T) {
	const shards = 4
	build := func(int) (*element.Graph, error) { return hotChainGraph(), nil }
	sp, err := NewSharded(build, ShardedConfig{
		Shards:   shards,
		Config:   Config{QueueDepth: 4},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.PerShardOut() {
		t.Fatal("PerShardOut() = false on a ShardOut pipeline")
	}
	ctx := context.Background()
	sp.Start(ctx)

	var (
		wg       sync.WaitGroup
		perShard [shards]uint64
		total    atomic.Uint64
	)
	for q := 0; q < shards; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for b := range sp.OutShard(q) {
				perShard[q] += uint64(b.Live())
				total.Add(uint64(b.Live()))
				b.Release()
			}
		}(q)
	}

	batches := seqTraffic(32, 40, 16)
	const injected = 40 * 16
	for _, b := range batches {
		if !injectByFlow(ctx, sp, b) {
			t.Fatal("injection refused")
		}
	}
	sp.CloseInput()
	wg.Wait()
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}

	if got := total.Load(); got != injected {
		t.Fatalf("per-shard outputs delivered %d packets, injected %d", got, injected)
	}
	spread := 0
	for q := 0; q < shards; q++ {
		if perShard[q] > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("only %d of %d shards emitted output — injection did not spread", spread, shards)
	}
	if rep := sp.Snapshot(); rep.OutPackets != injected || rep.DropPackets != 0 {
		t.Fatalf("stats: out=%d drops=%d, want %d/0", rep.OutPackets, rep.DropPackets, injected)
	}
	// The merged channel exists for API compatibility but carries nothing.
	if b, ok := <-sp.Out(); ok {
		t.Fatalf("merged Out() delivered a batch (%d packets) in ShardOut mode", b.Len())
	}
}

// TestShardedOutShardRequiresMode: OutShard on a merged-output pipeline is
// a programming error and must panic rather than return a nil channel that
// blocks forever.
func TestShardedOutShardRequiresMode(t *testing.T) {
	build := func(int) (*element.Graph, error) { return hotChainGraph(), nil }
	sp, err := NewSharded(build, ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OutShard without ShardOut did not panic")
		}
	}()
	_ = sp.OutShard(0)
}

// TestShardedShardOutDropAccounting routes some packets into drops (TTL
// exhausted at DecTTL) and checks the replicas book them.
func TestShardedShardOutDropAccounting(t *testing.T) {
	build := func(int) (*element.Graph, error) { return hotChainGraph(), nil }
	sp, err := NewSharded(build, ShardedConfig{
		Shards:   2,
		Config:   Config{QueueDepth: 2},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)

	var live, seen atomic.Uint64
	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for b := range sp.OutShard(q) {
				live.Add(uint64(b.Live()))
				seen.Add(uint64(b.Len()))
				b.Release()
			}
		}(q)
	}

	batches := seqTraffic(8, 10, 8)
	const injected = 10 * 8
	ttlZero := 0
	for bi, b := range batches {
		if bi%2 == 0 {
			for _, p := range b.Packets {
				// Zeroing the TTL guarantees a drop somewhere in the chain
				// (checksum check or TTL exhaustion — either counts).
				p.Data[p.L3Offset+8] = 0
				ttlZero++
			}
		}
		injectByFlow(ctx, sp, b)
	}
	sp.CloseInput()
	wg.Wait()
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	if seen.Load() != injected {
		t.Fatalf("shard outputs carried %d packets, injected %d", seen.Load(), injected)
	}
	wantLive := uint64(injected - ttlZero)
	if live.Load() != wantLive {
		t.Fatalf("live=%d, want %d (%d TTL-zeroed)", live.Load(), wantLive, ttlZero)
	}
	if rep := sp.Snapshot(); rep.OutPackets != wantLive || rep.DropPackets != uint64(ttlZero) {
		t.Fatalf("stats: out=%d drops=%d, want %d/%d", rep.OutPackets, rep.DropPackets, wantLive, ttlZero)
	}
}
