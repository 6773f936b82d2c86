package ingress

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/acl"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

// capture builds an in-memory pcap of n generated packets with spread-out
// timestamps.
func capture(t *testing.T, n, flows int, seed int64) []byte {
	t.Helper()
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.IMIX{}, Flows: flows, Seed: seed})
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = gen.NextPacket()
		pkts[i].Arrival = int64(i) * 10_000 // 10 µs apart
	}
	var buf bytes.Buffer
	if err := traffic.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func memSource(t *testing.T, capt []byte, cfg PcapConfig) *PcapSource {
	t.Helper()
	src, err := NewPcapSource(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(capt)), nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestPcapSourceLoopAndRekey(t *testing.T) {
	capt := capture(t, 40, 16, 3)
	src := memSource(t, capt, PcapConfig{Loops: 3})
	defer src.Close()

	var flowIDs [][]uint64
	pass := []uint64{}
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pass = append(pass, p.FlowID)
		if len(pass) == 40 {
			flowIDs = append(flowIDs, pass)
			pass = []uint64{}
		}
	}
	if len(flowIDs) != 3 || len(pass) != 0 {
		t.Fatalf("replayed %d full passes (+%d stragglers), want 3", len(flowIDs), len(pass))
	}
	if src.pass != 3 || src.count != 120 {
		t.Fatalf("passes=%d count=%d", src.pass, src.count)
	}
	// Pass 0 keeps the plain flow hash (so it matches BatchesFromPcap);
	// later passes are salted into fresh flow identities.
	same01, same12 := 0, 0
	for i := range flowIDs[0] {
		if flowIDs[0][i] == flowIDs[1][i] {
			same01++
		}
		if flowIDs[1][i] == flowIDs[2][i] {
			same12++
		}
	}
	if same01 != 0 || same12 != 0 {
		t.Fatalf("rekey left %d/%d flow ids unchanged across passes", same01, same12)
	}
}

func TestPcapSourcePacing(t *testing.T) {
	// 50 packets at 10000 pps: the run cannot finish faster than ~4.9 ms.
	capt := capture(t, 50, 8, 5)
	src := memSource(t, capt, PcapConfig{PacePPS: 10000})
	defer src.Close()
	start := time.Now()
	n := 0
	for {
		if _, err := src.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("paced replay of %d packets finished in %v, too fast for 10kpps", n, elapsed)
	}
}

func TestPcapSourceArenaAlloc(t *testing.T) {
	capt := capture(t, 30, 8, 7)
	arena := netpkt.NewArena()
	src := memSource(t, capt, PcapConfig{Arena: arena})
	defer src.Close()
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Data) == 0 || p.FlowID == 0 {
			t.Fatal("arena-allocated packet not filled in")
		}
		netpkt.PutPacket(p) // must route back to arena without panicking
	}
}

func TestUDPSourceSinkLoopback(t *testing.T) {
	src, err := NewUDPSource("127.0.0.1:0", netpkt.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", src.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Flows: 8, Seed: 11})
	const n = 24
	want := make(map[string]int, n)
	for i := 0; i < n; i++ {
		p := gen.NextPacket()
		want[string(p.Data)]++
		if _, err := conn.Write(p.Data); err != nil {
			t.Fatal(err)
		}
	}

	got := make(map[string]int, n)
	for i := 0; i < n; i++ {
		p, err := src.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if p.FlowID == 0 {
			t.Fatal("UDP source did not stamp FlowID")
		}
		got[string(p.Data)]++
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("frame %.30q: sent %d, received %d", k, c, got[k])
		}
	}

	// Close unblocks a pending read with io.EOF.
	done := make(chan error, 1)
	go func() { _, err := src.Next(); done <- err }()
	time.Sleep(10 * time.Millisecond)
	src.Close()
	if err := <-done; err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}

// chainBuild constructs the paper's fw→router→nat service chain, one fresh
// stateful replica per shard.
func chainBuild(shard int) (*element.Graph, error) {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	_ = tr.Insert(0xc0a80000, 16, 2)
	_ = tr.Insert(0x0a000000, 8, 3)
	g, _, _ := nf.BuildChain([]*nf.NF{
		nf.NewFirewall("fw", acl.Generate(64, 7), true),
		nf.NewIPv4Router("router", trie.BuildDir24_8(&tr), "ingress-test"),
		nf.NewNAT("nat", 0x01020304),
	})
	return g, nil
}

// TestPumpDifferentialNICvsFunnel: replaying a capture through the pump must
// produce the exact multiset of outputs that one sequential executor per NIC
// queue produces, each fed its queue's packets in arrival order, at every
// shard count, whichever channels the outputs drain through and whether the
// caller passes the NIC or the pump builds it — including the
// order-sensitive NAT, because a single-pass replay has one reader and so
// gives every shard its queue's arrival order.
func TestPumpDifferentialNICvsFunnel(t *testing.T) {
	capt := capture(t, 3000, 400, 17)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			want := oracle(t, capt, 1, shards, chainBuild)
			for _, row := range []struct {
				name          string
				nic, shardOut bool
			}{
				{"merged", true, false},
				{"shard-out", true, true},
				{"nil-nic", false, false},
			} {
				t.Run(row.name, func(t *testing.T) {
					var nic *NIC
					var arena *netpkt.Arena
					if row.nic {
						nic = NewNIC(shards)
						arena = nic.Arena(0)
					}
					sp, err := dataplane.NewSharded(chainBuild, dataplane.ShardedConfig{
						Shards:   shards,
						Config:   dataplane.Config{QueueDepth: 4, Metrics: true},
						ShardOut: row.shardOut,
					})
					if err != nil {
						t.Fatal(err)
					}
					collect := &CollectSink{}
					src := memSource(t, capt, PcapConfig{Arena: arena})
					st, err := Pump(context.Background(), src, sp, collect, PumpConfig{
						BatchSize: 32,
						NIC:       nic,
						FlowTTL:   int64(time.Hour),
						RXWorkers: shards,
					})
					if err != nil {
						t.Fatal(err)
					}
					if st.Packets != 3000 || st.OutPackets+st.Drops != 3000 {
						t.Fatalf("accounting: in=%d out=%d drops=%d, want 3000 in and out", st.Packets, st.OutPackets, st.Drops)
					}
					if st.Flows == 0 || st.PeakFlows == 0 {
						t.Fatalf("no conntrack activity: flows=%d peak=%d", st.Flows, st.PeakFlows)
					}
					live := 0
					for _, o := range collect.Outputs {
						if !strings.HasPrefix(o, "drop:") {
							live++
						}
					}
					if uint64(live) != st.OutPackets {
						t.Fatalf("sink saw %d live packets, pump counted %d", live, st.OutPackets)
					}
					ing := append([]string(nil), collect.Outputs...)
					sort.Strings(ing)
					if len(ing) != len(want) {
						t.Fatalf("output counts differ: ingress=%d executors=%d", len(ing), len(want))
					}
					for i := range ing {
						if ing[i] != want[i] {
							t.Fatalf("output multiset diverges at %d of %d", i, len(ing))
						}
					}
				})
			}
		})
	}
}

// TestPumpDrainFollowsPipeline: the pump drains whichever output the pipeline
// has — OutShard(q) on a ShardOut pipeline, the merged Out() otherwise — at
// every reader and shard count, and so returns every packet it read with a
// clean ledger and every arena balanced. The deadline turns a drain that
// waits on the wrong channel into a failure instead of a hang.
func TestPumpDrainFollowsPipeline(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)

	const n, loops = 300, 4
	capt := capture(t, n, 64, 19)
	for _, readers := range []int{1, 4} {
		for _, shardOut := range []bool{true, false} {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("readers=%d/shard-out=%v/shards=%d", readers, shardOut, shards), func(t *testing.T) {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					nic := NewNIC(shards)
					rec := flight.New(flight.Config{})
					sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
						Shards:   shards,
						Config:   dataplane.Config{QueueDepth: 4, Flight: rec},
						ShardOut: shardOut,
					})
					if err != nil {
						t.Fatal(err)
					}
					src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0), Loops: loops})
					defer src.Close()
					st, err := Pump(ctx, src, sp, nil, PumpConfig{BatchSize: 32, NIC: nic, RXWorkers: readers, Flight: rec})
					if err != nil {
						t.Fatal(err)
					}
					if st.Readers != readers || st.Packets != n*loops || st.OutPackets+st.Drops != st.Packets {
						t.Fatalf("%d readers read %d packets, %d out + %d dropped; want %d readers, %d in and out",
							st.Readers, st.Packets, st.OutPackets, st.Drops, readers, n*loops)
					}
					if total := rec.Ledger().Total(); total != 0 {
						t.Fatalf("clean run booked %d lost packets: %s", total, rec.Ledger())
					}
					for q := 0; q < shards; q++ {
						if out := nic.Arena(q).Outstanding(); out != 0 {
							t.Fatalf("arena %d: %d packets outstanding after the drain", q, out)
						}
					}
				})
			}
		}
	}
}

// TestPumpConntrackExpiry: a trace whose flows go idle must shed them via
// the per-batch incremental sweeps, not keep them forever.
func TestPumpConntrackExpiry(t *testing.T) {
	// Two bursts 10 s of trace time apart; TTL 1 s. The first burst's
	// flows are stale while the second burst replays, and the per-batch
	// ExpireTail sweeps must reclaim them.
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(96), Flows: 200, Seed: 29})
	var pkts []*netpkt.Packet
	for i := 0; i < 400; i++ {
		p := gen.NextPacket()
		p.Arrival = int64(i) * 1000
		pkts = append(pkts, p)
	}
	gen2 := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(96), Flows: 200, Seed: 31})
	for i := 0; i < 400; i++ {
		p := gen2.NextPacket()
		p.Arrival = 10*int64(time.Second) + int64(i)*1000
		pkts = append(pkts, p)
	}
	var buf bytes.Buffer
	if err := traffic.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}

	sp, err := dataplane.NewSharded(chainBuild, dataplane.ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Pump(context.Background(), memSource(t, buf.Bytes(), PcapConfig{}), sp, nil, PumpConfig{
		BatchSize:    32,
		FlowTTL:      int64(time.Second),
		expiryBudget: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpiredFlows == 0 {
		t.Fatal("no conntrack entries expired across a 10s idle gap with 1s TTL")
	}
	if st.Flows == 0 || st.PeakFlows == 0 {
		t.Fatalf("flows=%d peak=%d", st.Flows, st.PeakFlows)
	}
}

// TestPumpFlowLedger: every conntrack insertion the pump counts is, at exit,
// still tracked, expired, or evicted — whichever path reclaimed it. The
// trace is two bursts of more flows than the table holds, further apart
// than the TTL: the first burst overflows the bound (evictions), its
// survivors are stale when the second arrives (expiries, most of them
// inside the touch rather than in the per-batch sweep), and the second
// burst refills every queue's share of the bound, so the live count at exit
// is the capacity.
func TestPumpFlowLedger(t *testing.T) {
	const capacity = 128
	capt := twoBursts(t)
	for _, row := range []struct {
		name              string
		shards, rxWorkers int
	}{
		{"classic", 1, 0},  // one reader feeds the one queue inline
		{"parallel", 2, 2}, // two queue workers behind rings
	} {
		t.Run(row.name, func(t *testing.T) {
			nic := NewNIC(row.shards)
			sp, err := dataplane.NewSharded(chainBuild, dataplane.ShardedConfig{
				Shards: row.shards, ShardOut: row.rxWorkers > 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0)})
			defer src.Close()
			st, err := Pump(context.Background(), src, sp, nil, PumpConfig{
				BatchSize:    32,
				NIC:          nic,
				RXWorkers:    row.rxWorkers,
				FlowTTL:      int64(time.Second),
				FlowCapacity: capacity,
				expiryBudget: 4,
				// Short rings keep the reader — which
				// advances the replay clock — from crossing the idle gap
				// before the workers have tracked the first burst.
				ringSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Workers != row.rxWorkers {
				t.Fatalf("ran %d queue workers, want %d", st.Workers, row.rxWorkers)
			}
			if st.ExpiredFlows == 0 || st.EvictedFlows == 0 {
				t.Fatalf("trace did not exercise both reclaim paths: %+v", *st)
			}
			if st.PeakFlows != capacity {
				t.Fatalf("PeakFlows = %d, want the bound %d", st.PeakFlows, capacity)
			}
			if live := uint64(capacity); st.Flows != live+st.ExpiredFlows+st.EvictedFlows {
				t.Fatalf("flow ledger: %d inserted != %d live + %d expired + %d evicted",
					st.Flows, live, st.ExpiredFlows, st.EvictedFlows)
			}
		})
	}
}

// twoBursts is a capture of two 600-packet bursts over 300 flows each, 10 s
// of trace time apart.
func twoBursts(t *testing.T) []byte {
	t.Helper()
	var pkts []*netpkt.Packet
	for burst, seed := range []int64{37, 41} {
		gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(96), Flows: 300, Seed: seed})
		for i := 0; i < 600; i++ {
			p := gen.NextPacket()
			p.Arrival = int64(burst)*10*int64(time.Second) + int64(i)*1000
			pkts = append(pkts, p)
		}
	}
	var buf bytes.Buffer
	if err := traffic.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPumpPerQueueFlowLedger: four queues fed by two readers each track
// their own flows. RSS gives every flow one queue, so the queues together
// count each distinct flow of the replay once; and under a bound and a TTL
// the ledger balances over the queues, with the peak census within the
// bound. The replay is the two bursts looped twice, one pass per reader.
func TestPumpPerQueueFlowLedger(t *testing.T) {
	const queues, readers = 4, 2
	capt := twoBursts(t)
	distinct := map[uint64]bool{}
	src := memSource(t, capt, PcapConfig{Loops: readers})
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		distinct[p.FlowID] = true
	}
	src.Close()
	for _, row := range []struct {
		name     string
		capacity int
		ttl      time.Duration
		live     uint64 // flows resident at exit
		reclaims bool   // whether flows expire and are evicted
	}{
		// Nothing leaves the tables, so the ledger says every flow was
		// inserted once, by the one queue RSS gives it.
		{"roomy", 1 << 12, time.Hour, uint64(len(distinct)), false},
		// The first burst overflows each queue's 32 flows, its survivors
		// are stale when the second burst arrives, and the second burst
		// refills every queue, so the live count at exit is the capacity.
		{"bounded", 128, time.Second, 128, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			nic := NewNIC(queues)
			sp, err := dataplane.NewSharded(chainBuild, dataplane.ShardedConfig{
				Shards: queues, ShardOut: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0), Loops: readers})
			defer src.Close()
			st, err := Pump(context.Background(), src, sp, nil, PumpConfig{
				BatchSize:    32,
				NIC:          nic,
				RXWorkers:    readers,
				FlowTTL:      int64(row.ttl),
				FlowCapacity: row.capacity,
				expiryBudget: 4,
				// Short rings keep a reader — which advances the replay
				// clock — from crossing the idle gap before the workers have
				// tracked its first burst.
				ringSize: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.Readers != readers || st.Workers != queues {
				t.Fatalf("ran %d readers and %d queue workers, want %d and %d",
					st.Readers, st.Workers, readers, queues)
			}
			switch {
			case row.reclaims && (st.ExpiredFlows == 0 || st.EvictedFlows == 0):
				t.Fatalf("trace did not exercise both reclaim paths: %+v", *st)
			case !row.reclaims && st.ExpiredFlows+st.EvictedFlows > 0:
				t.Fatalf("%d flows expired and %d evicted from tables with room",
					st.ExpiredFlows, st.EvictedFlows)
			}
			if st.Flows != row.live+st.ExpiredFlows+st.EvictedFlows {
				t.Fatalf("flow ledger: %d inserted != %d live + %d expired + %d evicted (%d distinct in the replay)",
					st.Flows, row.live, st.ExpiredFlows, st.EvictedFlows, len(distinct))
			}
			if st.PeakFlows > row.capacity || uint64(st.PeakFlows) != row.live {
				t.Fatalf("PeakFlows = %d, want the %d flows resident at exit, within the bound %d",
					st.PeakFlows, row.live, row.capacity)
			}
		})
	}
}

// TestUDPEndToEnd drives the pipeline from a real socket: an emitter
// writes frames to the UDP source while the pump replays them through the
// chain, NIC demux and all.
func TestUDPEndToEnd(t *testing.T) {
	arena := netpkt.NewArena()
	src, err := NewUDPSource("127.0.0.1:0", arena)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 200
	sink := &DiscardSink{}
	go func() {
		defer src.Close() // end of stream → pump drains
		conn, err := net.Dial("udp", src.LocalAddr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Flows: 32, Seed: 41})
		for i := 0; i < frames; i++ {
			if _, err := conn.Write(gen.NextPacket().Data); err != nil {
				return
			}
			if i%32 == 31 {
				time.Sleep(time.Millisecond) // let the reader keep up on lossy loopback
			}
		}
		// Close only once the pipeline has digested everything that will
		// arrive (loopback can still drop under memory pressure), so the
		// pump is never cut off before it started reading.
		deadline := time.Now().Add(5 * time.Second)
		for sink.Packets.Load() < frames && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}()

	nic := NewNIC(2)
	sp, err := dataplane.NewSharded(chainBuild, dataplane.ShardedConfig{
		Shards: 2,
		Config: dataplane.Config{QueueDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Pump(context.Background(), src, sp, sink, PumpConfig{BatchSize: 16, NIC: nic})
	if err != nil {
		t.Fatal(err)
	}
	// UDP loopback may drop under pressure; demand most frames arrived and
	// everything that arrived was fully accounted.
	if st.Packets < frames/2 {
		t.Fatalf("received only %d of %d frames", st.Packets, frames)
	}
	if st.OutPackets+st.Drops != st.Packets {
		t.Fatalf("accounting: in=%d out=%d drops=%d", st.Packets, st.OutPackets, st.Drops)
	}
}
