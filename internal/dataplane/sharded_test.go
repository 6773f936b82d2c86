package dataplane

// Sharded differential harness: the sharded pipeline must be functionally
// indistinguishable from the single pipeline (and hence from the
// sequential executor) on flow-independent element graphs — same multiset
// of per-packet outcomes, the same outcome for every packet, and each
// flow's packets in injection order. Graphs are the randomized shapes of
// differential_test.go, which only use elements whose per-packet outcome
// depends on packet content alone, so shard-local state cannot diverge from
// the single-instance run.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

// injectByFlow steers b into sp as an RSS NIC would: b is split by FlowKey
// modulo the shard count, each part keeps b's ID and its packets' order, and
// each goes to its shard through InjectShard. (ingress.NIC.Steer is the
// production form, by Toeplitz queue; this package cannot import ingress.)
func injectByFlow(ctx context.Context, sp *ShardedPipeline, b *netpkt.Batch) bool {
	n := uint64(sp.NumShards())
	parts := make([][]*netpkt.Packet, n)
	for _, p := range b.Packets {
		s := p.FlowKey() % n
		parts[s] = append(parts[s], p)
	}
	for s, pkts := range parts {
		if len(pkts) > 0 && !sp.InjectShard(ctx, s, b.Derive(pkts)) {
			return false
		}
	}
	return true
}

// runSharded builds and starts a sharded pipeline, injects every batch by
// flow, drains it and returns the output batches in arrival order plus the
// pipeline (for Stats and Snapshot).
func runSharded(t testing.TB, build func(int) (*element.Graph, error), cfg ShardedConfig,
	batches []*netpkt.Batch) ([]*netpkt.Batch, *ShardedPipeline) {
	t.Helper()
	sp, err := NewSharded(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	var outs []*netpkt.Batch
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range sp.Out() {
			outs = append(outs, b)
		}
	}()
	for _, b := range batches {
		if !injectByFlow(ctx, sp, b) {
			break
		}
	}
	sp.CloseInput()
	<-collected
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	return outs, sp
}

// checkFlowOrder fails unless every flow's packets (by their seqTraffic
// payload stamps) surface in injection order, and returns how many packets
// it saw.
func checkFlowOrder(t *testing.T, outs []*netpkt.Batch) int {
	t.Helper()
	lastSeq := make(map[uint32]int64)
	seen := 0
	for _, b := range outs {
		for _, p := range b.Packets {
			if p.Dropped {
				t.Fatalf("unexpected drop: %v", p)
			}
			payload := p.Payload()
			f := binary.BigEndian.Uint32(payload[0:4])
			seq := int64(binary.BigEndian.Uint32(payload[4:8]))
			if prev, ok := lastSeq[f]; ok && seq <= prev {
				t.Fatalf("flow %d: seq %d after %d (per-flow order violated)", f, seq, prev)
			}
			lastSeq[f] = seq
			seen++
		}
	}
	return seen
}

// buildShardDiamondRand wraps a Duplicator/XORMerge diamond with random
// linear segments, like buildDiamondRand but with flow-independent branches
// (DecTTL writes the header, Paint writes an annotation). The NAT of
// buildDiamondRand is deliberately absent: its port allocator is cross-flow
// arrival-order dependent, so shard-local NAT instances legitimately assign
// different ports than one global instance would (the same semantics RSS
// gives multi-queue NICs) — per-flow behaviour matches, bytes do not, and a
// byte-level differential would report that as a failure.
func buildShardDiamondRand(seed int64) *element.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	prev = chainSegment(g, rng, prev, 0)

	dup := core.NewDuplicator("dup", 2)
	dupID := g.Add(dup)
	merge := core.NewXORMerge("merge", dup)
	mergeID := g.Add(merge)
	g.MustConnect(prev, 0, dupID)
	b0 := g.Add(element.NewDecTTL("b0"))
	b1 := g.Add(element.NewPaint("b1", byte(rng.Intn(256))))
	g.MustConnect(dupID, 0, b0)
	g.MustConnect(dupID, 1, b1)
	g.MustConnect(b0, 0, mergeID)
	g.MustConnect(b1, 0, mergeID)

	tail := chainSegment(g, rng, mergeID, 1)
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(tail, 0, dst)
	return g
}

// TestShardedDifferentialMultiset: for random graphs, traffic, and shard
// counts, the sharded pipeline must emit exactly the sequential executor's
// multiset of per-packet outcomes.
func TestShardedDifferentialMultiset(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildShardDiamondRand,
		"fanout":  buildFanoutRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 31
			shards := 1 + int(trial%4) // 1..4
			t.Run(fmt.Sprintf("%s/%d/shards=%d", name, trial, shards), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 24, 16))
				conOut, _ := runSharded(t,
					func(int) (*element.Graph, error) { return build(seed), nil },
					ShardedConfig{
						Config: Config{QueueDepth: 1 + int(trial%3)},
						Shards: shards,
					}, diffTraffic(seed, 24, 16))
				want, got := multiset(flatten(seqOut)), multiset(conOut)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: seq=%d sharded=%d", len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: seq=%d sharded=%d", k, n, got[k])
					}
				}
			})
		}
	}
}

// TestShardedOrderedExact: single-sink one-batch-per-batch graphs must give
// every packet exactly the sequential executor's outcome across any shard
// count — drop flag and bytes, matched by (batch ID, position in batch) —
// with no packet lost and each flow's packets in injection order. Order
// across flows is not promised. This is the cross-shard extension of
// TestDifferentialExactOrder.
func TestShardedOrderedExact(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildShardDiamondRand,
	}
	type slot struct {
		id  uint64
		seq int
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 53
			shards := 2 + int(trial%3) // 2..4
			t.Run(fmt.Sprintf("%s/%d/shards=%d", name, trial, shards), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 30, 8))
				want := make(map[slot]*netpkt.Packet)
				for id, sbs := range seqOut {
					if len(sbs) != 1 {
						t.Fatalf("sequential emitted %d batches for id %d", len(sbs), id)
					}
					for j, p := range sbs[0].Packets {
						want[slot{id, j}] = p
					}
				}
				conOut, _ := runSharded(t,
					func(int) (*element.Graph, error) { return build(seed), nil },
					ShardedConfig{
						Config: Config{QueueDepth: 2, Metrics: true},
						Shards: shards,
					}, diffTraffic(seed, 30, 8))
				last := make(map[uint64]slot)
				seen := 0
				for _, cb := range conOut {
					for _, cp := range cb.Packets {
						at := slot{cb.ID, cp.SeqInBatch}
						sp, ok := want[at]
						if !ok {
							t.Fatalf("batch %d pkt %d: no sequential counterpart", at.id, at.seq)
						}
						if cp.Dropped != sp.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v", at.id, at.seq, cp.Dropped, sp.Dropped)
						}
						if !cp.Dropped && !bytes.Equal(cp.Data, sp.Data) {
							t.Fatalf("batch %d pkt %d: payload differs", at.id, at.seq)
						}
						flow := cp.FlowKey()
						if prev, ok := last[flow]; ok && (at.id < prev.id || at.id == prev.id && at.seq <= prev.seq) {
							t.Fatalf("flow %#x: batch %d pkt %d after batch %d pkt %d", flow, at.id, at.seq, prev.id, prev.seq)
						}
						last[flow] = at
						seen++
					}
				}
				if seen != len(want) {
					t.Fatalf("sharded emitted %d packets, sequential %d", seen, len(want))
				}
			})
		}
	}
}

// seqTraffic builds batches where every packet carries its flow and a
// per-flow sequence number in the payload, mixing flows within each batch
// so injection is forced to split.
func seqTraffic(flows, batches, perBatch int) []*netpkt.Batch {
	next := make([]uint32, flows)
	out := make([]*netpkt.Batch, batches)
	for i := range out {
		pkts := make([]*netpkt.Packet, perBatch)
		for j := range pkts {
			f := (i*perBatch + j) % flows
			payload := make([]byte, 8)
			binary.BigEndian.PutUint32(payload[0:4], uint32(f))
			binary.BigEndian.PutUint32(payload[4:8], next[f])
			next[f]++
			p := netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
				SrcMAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netpkt.MAC{2, 0, 0, 0, 0, 2},
				SrcIP: netpkt.IPv4Addr(0x0a000000 | uint32(f)), DstIP: netpkt.IPv4Addr(0x0a000001),
				SrcPort: uint16(1000 + f), DstPort: 80,
				Payload: payload,
				FlowID:  uint64(f + 1),
			})
			pkts[j] = p
		}
		out[i] = netpkt.NewBatch(uint64(i), pkts)
	}
	return out
}

// TestShardedPerFlowOrder: under sharding, packets of one flow must surface
// in their injection order — the flow-affinity guarantee that keeps
// stateful NFs correct.
// The sharded plane keeps no global order across flows, so the one case it
// runs is the unordered one.
func TestShardedPerFlowOrder(t *testing.T) {
	t.Run("ordered=false", func(t *testing.T) {
		build := func(int) (*element.Graph, error) {
			g := element.NewGraph()
			src := g.Add(element.NewFromDevice("src"))
			chk := g.Add(element.NewCheckIPHeader("chk"))
			ttl := g.Add(element.NewDecTTL("ttl"))
			dst := g.Add(element.NewToDevice("dst"))
			g.MustConnect(src, 0, chk)
			g.MustConnect(chk, 0, ttl)
			g.MustConnect(ttl, 0, dst)
			return g, nil
		}
		const flows = 13
		outs, _ := runSharded(t, build, ShardedConfig{Shards: 4, Config: Config{QueueDepth: 2}},
			seqTraffic(flows, 40, 16))
		if seen := checkFlowOrder(t, outs); seen != 40*16 {
			t.Fatalf("saw %d packets, want %d", seen, 40*16)
		}
	})
}

// TestShardedSnapshotAggregation: the aggregated report must conserve
// packets (per-element pkts-in equals total injected on a linear chain) and
// still convert into allocator inputs via Intensities.
func TestShardedSnapshotAggregation(t *testing.T) {
	build := func(int) (*element.Graph, error) {
		g := element.NewGraph()
		src := g.Add(element.NewFromDevice("src"))
		cnt := g.Add(element.NewCounter("cnt"))
		dst := g.Add(element.NewToDevice("dst"))
		g.MustConnect(src, 0, cnt)
		g.MustConnect(cnt, 0, dst)
		return g, nil
	}
	const nBatches, perBatch = 32, 16
	_, sp := runSharded(t, build, ShardedConfig{Shards: 3, Config: Config{Metrics: true}},
		seqTraffic(7, nBatches, perBatch))
	rep := sp.Snapshot()
	want := uint64(nBatches * perBatch)
	if rep.InPackets != want || rep.OutPackets != want {
		t.Fatalf("boundary totals: in=%d out=%d want %d", rep.InPackets, rep.OutPackets, want)
	}
	if len(rep.Elements) != 3 {
		t.Fatalf("aggregated %d element rows, want 3", len(rep.Elements))
	}
	for _, e := range rep.Elements {
		if e.PktsIn != want {
			t.Fatalf("element %s aggregated pkts-in %d, want %d", e.Name, e.PktsIn, want)
		}
	}
	// Per-shard reports must sum to the aggregate.
	var sum uint64
	for i := 0; i < sp.NumShards(); i++ {
		sum += sp.shards[i].Snapshot().Elements[1].PktsIn
	}
	if sum != want {
		t.Fatalf("per-shard pkts-in sum %d, want %d", sum, want)
	}
}

// TestShardedGraphShapeMismatch: replica factories that disagree must be
// rejected at construction, not fail silently during aggregation.
func TestShardedGraphShapeMismatch(t *testing.T) {
	build := func(shard int) (*element.Graph, error) {
		g := element.NewGraph()
		src := g.Add(element.NewFromDevice("src"))
		prev := src
		if shard == 1 { // extra node on shard 1 only
			mid := g.Add(element.NewDecTTL("ttl"))
			g.MustConnect(prev, 0, mid)
			prev = mid
		}
		dst := g.Add(element.NewToDevice("dst"))
		g.MustConnect(prev, 0, dst)
		return g, nil
	}
	if _, err := NewSharded(build, ShardedConfig{Shards: 2}); err == nil {
		t.Fatal("mismatched shard graphs accepted")
	}
}
