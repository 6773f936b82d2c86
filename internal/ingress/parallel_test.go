package ingress

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfcompass/internal/acl"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

// statelessChainBuild is fw→router without the NAT: every element's output
// depends only on the packet's own bytes, never on arrival order, so its
// output multiset is comparable across runs that interleave flows
// differently (any reader count, the sequential executor). The NAT allocates
// ports in flow-arrival order and stays in the NIC-vs-executor-per-queue
// differentials, where both sides see identical per-queue order.
func statelessChainBuild(shard int) (*element.Graph, error) {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	_ = tr.Insert(0xc0a80000, 16, 2)
	g, _, _ := nf.BuildChain([]*nf.NF{
		nf.NewFirewall("fw", acl.Generate(64, 7), true),
		nf.NewIPv4Router("router", trie.BuildDir24_8(&tr), "parallel-test"),
	})
	return g, nil
}

// runPump replays capt through a fresh pipeline and returns the sorted
// output multiset plus the stats.
func runPump(t *testing.T, capt []byte, shards, rxWorkers, loops int, build func(int) (*element.Graph, error)) ([]string, *PumpStats) {
	t.Helper()
	nic := NewNIC(shards)
	sp, err := dataplane.NewSharded(build, dataplane.ShardedConfig{
		Shards:   shards,
		Config:   dataplane.Config{QueueDepth: 4},
		ShardOut: rxWorkers > 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	collect := &CollectSink{}
	src := memSource(t, capt, PcapConfig{
		Arena: nic.Arena(0), Loops: loops,
	})
	defer src.Close()
	st, err := Pump(context.Background(), src, sp, collect, PumpConfig{
		BatchSize: 32,
		NIC:       nic,
		FlowTTL:   int64(time.Hour),
		RXWorkers: rxWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := append([]string(nil), collect.Outputs...)
	sort.Strings(out)
	return out, st
}

// oracle replays the same looped, rekeyed capture through one sequential
// element.Executor per queue of a queues-queue NIC — each fed its queue's
// packets in arrival order, as the pump's one reader deals them — and returns
// the sorted output multiset in CollectSink's form. Per queue, the executors
// see exactly what the pump's shards see, so order-dependent state (NAT
// ports) matches too.
func oracle(t *testing.T, capt []byte, loops, queues int, build func(int) (*element.Graph, error)) []string {
	t.Helper()
	nic := NewNIC(queues)
	xs := make([]*element.Executor, queues)
	for q := range xs {
		g, err := build(q)
		if err != nil {
			t.Fatal(err)
		}
		if xs[q], err = element.NewExecutor(g); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	pending := make([][]*netpkt.Packet, queues)
	run := func(q int) {
		outs, err := xs[q].RunBatch(netpkt.NewBatch(0, pending[q]))
		if err != nil {
			t.Fatal(err)
		}
		pending[q] = nil
		for _, bs := range outs {
			for _, b := range bs {
				for _, p := range b.Packets {
					if !p.Dropped {
						out = append(out, string(p.Data))
					}
				}
			}
		}
	}
	src := memSource(t, capt, PcapConfig{Loops: loops})
	defer src.Close()
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		q := nic.rss.Queue(p)
		if pending[q] = append(pending[q], p); len(pending[q]) == 32 {
			run(q)
		}
	}
	for q := range pending {
		if len(pending[q]) > 0 {
			run(q)
		}
	}
	// The executor clears DropReason as it books a drop, so its drop side
	// is its per-reason tally.
	for _, x := range xs {
		for reason, n := range x.Stats.Drops {
			for ; n > 0; n-- {
				out = append(out, "drop:"+reason)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestPumpParallelVsSingleReaderDifferential is the pump's correctness gate:
// at every reader count × queue count — the inline shape and the ring shape
// alike — it must emit exactly the multiset of outputs the sequential
// element.Executor produces for the same looped, rekeyed replay.
func TestPumpParallelVsSingleReaderDifferential(t *testing.T) {
	const loops = 4
	capt := capture(t, 1500, 250, 47)
	ref := oracle(t, capt, loops, 1, statelessChainBuild)
	if len(ref) != 1500*loops {
		t.Fatalf("oracle emitted %d outputs, want %d", len(ref), 1500*loops)
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, readers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", readers), func(t *testing.T) {
					got, st := runPump(t, capt, shards, readers, loops, statelessChainBuild)
					if st.Packets != 1500*loops {
						t.Fatalf("pump read %d packets, want %d", st.Packets, 1500*loops)
					}
					if st.Readers != readers {
						t.Fatalf("looped rekeyed source split into %d readers, want %d", st.Readers, readers)
					}
					// One reader in front of one queue runs inline: no worker goroutines.
					wantWorkers := shards
					if shards == 1 && readers == 1 {
						wantWorkers = 0
					}
					if st.Workers != wantWorkers {
						t.Fatalf("ran %d queue workers, want %d", st.Workers, wantWorkers)
					}
					if len(got) != len(ref) {
						t.Fatalf("output counts differ: pump=%d executor=%d", len(got), len(ref))
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("output multiset diverges at %d of %d", i, len(got))
						}
					}
				})
			}
		})
	}
}

// TestPumpParallelNICvsFunnelDifferential holds the per-queue guarantee at
// every RXWorkers cap in front of a four-queue NIC: output through the queue
// workers, with per-shard drains when the pipeline is ShardOut, is
// multiset-identical to one sequential executor per queue fed that queue's
// packets in arrival order — NAT included. A single-pass capture does not
// split, so every cap runs one reader, which gives each shard the arrival
// order its executor sees.
func TestPumpParallelNICvsFunnelDifferential(t *testing.T) {
	capt := capture(t, 2000, 300, 53)
	const shards = 4
	want := oracle(t, capt, 1, shards, chainBuild)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, st := runPump(t, capt, shards, workers, 1, chainBuild)
			if st.Packets != 2000 || st.OutPackets+st.Drops != 2000 {
				t.Fatalf("accounting: in=%d out=%d drops=%d, want 2000 in and out", st.Packets, st.OutPackets, st.Drops)
			}
			if st.Readers != 1 || st.Workers != shards {
				t.Fatalf("ran %d readers and %d queue workers, want 1 and %d", st.Readers, st.Workers, shards)
			}
			if len(got) != len(want) {
				t.Fatalf("output counts differ: ingress=%d executors=%d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("output multiset diverges at %d of %d", i, len(got))
				}
			}
		})
	}
}

// flowOrderSink records, per FlowID, the sequence numbers embedded in each
// packet's trailing 4 payload bytes, in the order the drains deliver them.
type flowOrderSink struct {
	mu   sync.Mutex
	seqs map[uint64][]uint32
}

func (s *flowOrderSink) Consume(b *netpkt.Batch) error {
	s.mu.Lock()
	for _, p := range b.Packets {
		if p == nil || p.Dropped || len(p.Data) < 4 {
			continue
		}
		seq := binary.BigEndian.Uint32(p.Data[len(p.Data)-4:])
		s.seqs[p.FlowID] = append(s.seqs[p.FlowID], seq)
	}
	s.mu.Unlock()
	b.Release()
	return nil
}

func (s *flowOrderSink) Close() error { return nil }

// TestPumpParallelPerFlowOrder stamps every packet with its source position
// and checks that each flow's packets leave the pipeline in source order at
// full parallelism — the end-to-end form of the split/RSS/ring ordering
// contract. Rekeyed passes are distinct FlowIDs, so each flow's stamps must
// be strictly increasing no matter how readers interleave passes.
func TestPumpParallelPerFlowOrder(t *testing.T) {
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Flows: 64, Seed: 59})
	const n = 1200
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		p := gen.NextPacket()
		p.Arrival = int64(i) * 1000
		binary.BigEndian.PutUint32(p.Data[len(p.Data)-4:], uint32(i))
		pkts[i] = p
	}
	var buf bytes.Buffer
	if err := traffic.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}

	const loops, shards = 3, 2
	nic := NewNIC(shards)
	sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
		Shards:   shards,
		Config:   dataplane.Config{QueueDepth: 4},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &flowOrderSink{seqs: make(map[uint64][]uint32)}
	src := memSource(t, buf.Bytes(), PcapConfig{
		Arena: nic.Arena(0), Loops: loops,
	})
	defer src.Close()
	st, err := Pump(context.Background(), src, sp, sink, PumpConfig{
		BatchSize: 16,
		NIC:       nic,
		RXWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != n*loops {
		t.Fatalf("injected %d packets, want %d", st.Packets, n*loops)
	}
	if len(sink.seqs) == 0 {
		t.Fatal("no flows observed")
	}
	for flow, seqs := range sink.seqs {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("flow %#x reordered: stamp %d after %d (position %d of %d)",
					flow, seqs[i], seqs[i-1], i, len(seqs))
			}
		}
	}
}

// TestReplayClockCASMax hammers the CAS-max clock from many goroutines and
// checks it is monotone under observation and lands on the global maximum.
func TestReplayClockCASMax(t *testing.T) {
	var c replayClock
	const goroutines, perG = 8, 10_000
	stop := make(chan struct{})
	var sawRegress atomic.Bool
	go func() {
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := c.Now()
			if now < last {
				sawRegress.Store(true)
				return
			}
			last = now
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleaved, deliberately non-monotone per goroutine: stale
			// observations must never move the clock backwards.
			for i := 0; i < perG; i++ {
				c.Observe(int64(i*goroutines + g))
				c.Observe(int64(i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	want := int64((perG-1)*goroutines + goroutines - 1)
	if got := c.Now(); got != want {
		t.Fatalf("clock = %d, want max %d", got, want)
	}
	if sawRegress.Load() {
		t.Fatal("replay clock moved backwards under concurrent observation")
	}
}

// TestPumpParallelPreCancelAudit: with a context cancelled before the run
// and pool poisoning armed, four readers feeding four queue workers must
// refuse cleanly and leave zero packets outstanding in every arena — the
// abort paths release everything they read.
func TestPumpParallelPreCancelAudit(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)

	capt := capture(t, 400, 64, 61)
	const shards = 4
	nic := NewNIC(shards)
	sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
		Shards:   shards,
		Config:   dataplane.Config{QueueDepth: 4},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := memSource(t, capt, PcapConfig{
		Arena: nic.Arena(0), Loops: 4,
	})
	defer src.Close()
	_, err = Pump(ctx, src, sp, nil, PumpConfig{
		BatchSize: 32,
		NIC:       nic,
		RXWorkers: 4,
	})
	if err == nil {
		t.Fatal("pump on a cancelled context returned nil error")
	}
	for q := 0; q < shards; q++ {
		if n := nic.Arena(q).Outstanding(); n != 0 {
			t.Fatalf("arena %d: %d packets outstanding after aborted run", q, n)
		}
	}
}

// TestPumpParallelMidCancelNoPanic cancels a paced run mid-flight with
// poisoning armed: the pump must return promptly without double-release
// panics. (Batches already inside the cancelled pipeline are dropped
// without release by design, so this asserts clean shutdown, not a zero
// ledger.)
func TestPumpParallelMidCancelNoPanic(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)

	capt := capture(t, 1000, 128, 67)
	const shards = 2
	nic := NewNIC(shards)
	sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
		Shards:   shards,
		Config:   dataplane.Config{QueueDepth: 4},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink := &DiscardSink{}
	src := memSource(t, capt, PcapConfig{
		Arena: nic.Arena(0), Loops: 64, PacePPS: 200_000,
	})
	defer src.Close()

	done := make(chan error, 1)
	go func() {
		_, err := Pump(ctx, src, sp, sink, PumpConfig{
			BatchSize: 32,
			NIC:       nic,
			RXWorkers: 2,
		})
		done <- err
	}()
	// Let some traffic through, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for sink.Packets.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled mid-run pump returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pump did not return within 10s of cancellation")
	}
}

// TestRSSQueueBatchMatchesQueue: the batch classifier must agree with the
// per-packet path on every traffic shape it special-cases (IPv4, IPv6,
// non-IP fallback).
func TestRSSQueueBatchMatchesQueue(t *testing.T) {
	nic := NewNIC(8)
	var pkts []*netpkt.Packet
	for _, cfg := range []traffic.Config{
		{Size: traffic.IMIX{}, Flows: 64, Seed: 71},
		{Size: traffic.Fixed(96), Flows: 32, Seed: 73, TCP: true},
		{Size: traffic.Fixed(200), Flows: 32, Seed: 79, IPv6: true},
	} {
		gen := traffic.NewGenerator(cfg)
		for i := 0; i < 100; i++ {
			pkts = append(pkts, gen.NextPacket())
		}
	}
	// A non-IP frame exercises the FlowKey fallback.
	junk := &netpkt.Packet{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0x08, 0x99, 0xde, 0xad}, L3Offset: -1, L4Offset: -1, FlowID: 0xfeed}
	pkts = append(pkts, junk)

	got := nic.QueueBatch(pkts, nil)
	if len(got) != len(pkts) {
		t.Fatalf("QueueBatch returned %d queues for %d packets", len(got), len(pkts))
	}
	for i, p := range pkts {
		if want := nic.rss.Queue(p); got[i] != want {
			t.Fatalf("packet %d: QueueBatch=%d Queue=%d", i, got[i], want)
		}
	}
}

// TestPcapSourceSplitUnion: the split readers' passes must union to exactly
// the single reader's passes — same packet count, same FlowID multiset —
// and retire the parent.
func TestPcapSourceSplitUnion(t *testing.T) {
	capt := capture(t, 40, 16, 83)
	const loops = 6

	drain := func(s Source) map[uint64]int {
		m := map[uint64]int{}
		for {
			p, err := s.Next()
			if err == io.EOF {
				return m
			}
			if err != nil {
				t.Fatal(err)
			}
			m[p.FlowID]++
		}
	}

	whole := drain(memSource(t, capt, PcapConfig{Loops: loops}))

	parent := memSource(t, capt, PcapConfig{Loops: loops})
	subs, err := parent.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("Split(4) returned %d readers", len(subs))
	}
	if _, err := parent.Next(); err != io.EOF {
		t.Fatalf("retired parent Next = %v, want io.EOF", err)
	}
	union := map[uint64]int{}
	total := 0
	for _, sub := range subs {
		part := drain(sub)
		sub.Close()
		for k, v := range part {
			union[k] += v
			total += v
		}
	}
	if total != 40*loops {
		t.Fatalf("split readers yielded %d packets, want %d", total, 40*loops)
	}
	if len(union) != len(whole) {
		t.Fatalf("flow multiset sizes differ: split=%d whole=%d", len(union), len(whole))
	}
	for k, v := range whole {
		if union[k] != v {
			t.Fatalf("flow %#x: split saw %d, whole saw %d", k, union[k], v)
		}
	}

	// A source that cannot split safely (single pass) returns itself.
	solo := memSource(t, capt, PcapConfig{})
	ss, err := solo.Split(4)
	if err != nil || len(ss) != 1 || ss[0] != Source(solo) {
		t.Fatalf("unsplittable source: got %d readers, err=%v", len(ss), err)
	}
}

// TestUDPSourceSplitPool: a reuseport reader pool must collectively receive
// everything senders emit, with each datagram delivered exactly once.
func TestUDPSourceSplitPool(t *testing.T) {
	if !reusePortSupported {
		t.Skip("no SO_REUSEPORT on this platform")
	}
	src, err := NewUDPSource("127.0.0.1:0", netpkt.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	subs, err := src.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("Split(4) returned %d readers", len(subs))
	}

	const senders, perSender = 8, 50
	var (
		mu       sync.Mutex
		received = map[string]int{}
		total    atomic.Int64
	)
	var rg sync.WaitGroup
	for _, sub := range subs {
		rg.Add(1)
		go func(s Source) {
			defer rg.Done()
			for {
				p, err := s.Next()
				if err != nil {
					return
				}
				mu.Lock()
				received[string(p.Data)]++
				mu.Unlock()
				netpkt.PutPacket(p)
				total.Add(1)
			}
		}(sub)
	}

	sent := map[string]int{}
	for sdr := 0; sdr < senders; sdr++ {
		conn, err := net.Dial("udp", src.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(120), Flows: 4, Seed: int64(89 + sdr)})
		for i := 0; i < perSender; i++ {
			p := gen.NextPacket()
			if _, err := conn.Write(p.Data); err != nil {
				t.Fatal(err)
			}
			sent[string(p.Data)]++
			if i%16 == 15 {
				time.Sleep(time.Millisecond)
			}
		}
		conn.Close()
	}

	// Loopback may drop under pressure; wait for most, then close the pool.
	deadline := time.Now().Add(5 * time.Second)
	for total.Load() < senders*perSender && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, sub := range subs {
		sub.Close()
	}
	rg.Wait()

	if got := total.Load(); got < senders*perSender/2 {
		t.Fatalf("reader pool received only %d of %d datagrams", got, senders*perSender)
	}
	for k, c := range received {
		if c > sent[k] {
			t.Fatalf("datagram %.20q delivered %d times, sent %d", k, c, sent[k])
		}
	}
}

// TestPumpSingleReaderCancelAudit: a cancelled injection must release the
// batch it refused, and a reader must release what it has not dealt into the
// rings. With poisoning armed, one reader in front of four queues ("nic"),
// and one whose source allocates from an arena of its own while the pump
// builds the NIC ("funnel"), must both drain to a zero arena ledger.
func TestPumpSingleReaderCancelAudit(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)

	capt := capture(t, 400, 64, 97)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("nic", func(t *testing.T) {
		const shards = 4
		nic := NewNIC(shards)
		sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
			Shards: shards,
			Config: dataplane.Config{QueueDepth: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0)})
		defer src.Close()
		if _, err := Pump(ctx, src, sp, nil, PumpConfig{BatchSize: 32, NIC: nic}); err == nil {
			t.Fatal("pump on a cancelled context returned nil error")
		}
		for q := 0; q < shards; q++ {
			if n := nic.Arena(q).Outstanding(); n != 0 {
				t.Fatalf("arena %d: %d packets outstanding after aborted run", q, n)
			}
		}
	})

	t.Run("funnel", func(t *testing.T) {
		arena := netpkt.NewArena()
		sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
			Shards: 2,
			Config: dataplane.Config{QueueDepth: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		src := memSource(t, capt, PcapConfig{Arena: arena})
		defer src.Close()
		if _, err := Pump(ctx, src, sp, nil, PumpConfig{BatchSize: 32}); err == nil {
			t.Fatal("pump on a cancelled context returned nil error")
		}
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("%d packets outstanding after aborted funnel run", n)
		}
	})
}
