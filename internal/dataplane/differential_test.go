package dataplane

// Differential harness: random element graphs and random traffic are run
// through the concurrent Pipeline and through the sequential
// element.Executor; both must agree. Elements mutate packets in place, so
// every trial builds the graph and the traffic twice from the same seed —
// one copy per engine.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/core"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

// contentDrop drops packets whose payload hashes to 0 mod `mod`. Being
// purely content-based it behaves identically regardless of the order in
// which batches reach it, unlike a stateful every-Nth dropper.
type contentDrop struct {
	name string
	mod  uint32
}

func (e *contentDrop) Name() string { return e.name }
func (e *contentDrop) Traits() element.Traits {
	return element.Traits{Kind: "ContentDrop", CanDrop: true}
}
func (e *contentDrop) NumOutputs() int   { return 1 }
func (e *contentDrop) Signature() string { return fmt.Sprintf("ContentDrop/%d", e.mod) }
func (e *contentDrop) Process(b *netpkt.Batch) []*netpkt.Batch {
	for _, p := range b.Packets {
		if p.Dropped {
			continue
		}
		var h uint32 = 2166136261
		for _, c := range p.Data[len(p.Data)-8:] {
			h = (h ^ uint32(c)) * 16777619
		}
		if h%e.mod == 0 {
			p.Drop(e.name)
		}
	}
	return []*netpkt.Batch{b}
}

// randMid returns a random single-input single-output element. The rng
// fully determines the element, so two calls on equally-seeded rngs build
// identical elements.
func randMid(rng *rand.Rand, i int) element.Element {
	name := fmt.Sprintf("m%d", i)
	switch rng.Intn(6) {
	case 0:
		return element.NewCheckIPHeader(name)
	case 1:
		return element.NewDecTTL(name)
	case 2:
		return element.NewPaint(name, byte(rng.Intn(256)))
	case 3:
		return element.NewCounter(name)
	case 4:
		return element.NewEtherEncap(name,
			netpkt.MAC{2, 0, 0, 0, 0, byte(rng.Intn(256))},
			netpkt.MAC{2, 0, 0, 0, 1, byte(rng.Intn(256))})
	default:
		return &contentDrop{name: name, mod: uint32(3 + rng.Intn(5))}
	}
}

// chainSegment appends 0..4 random elements after prev and returns the new
// tail.
func chainSegment(g *element.Graph, rng *rand.Rand, prev element.NodeID, tag int) element.NodeID {
	n := rng.Intn(5)
	for i := 0; i < n; i++ {
		id := g.Add(randMid(rng, tag*10+i))
		g.MustConnect(prev, 0, id)
		prev = id
	}
	return prev
}

// buildLinearRand builds src -> random segment -> dst. Single sink, one
// batch out per batch in: safe for PreserveOrder comparison.
func buildLinearRand(seed int64) *element.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	prev = chainSegment(g, rng, prev, 0)
	if rng.Intn(4) > 0 { // usually keep at least one element
		id := g.Add(element.NewDecTTL("ttl"))
		g.MustConnect(prev, 0, id)
		prev = id
	}
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(prev, 0, dst)
	return g
}

// buildDiamondRand wraps a Duplicator/XORMerge parallel diamond (one merged
// batch out per batch in — still PreserveOrder-safe) with random linear
// segments on both sides.
func buildDiamondRand(seed int64) *element.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	prev = chainSegment(g, rng, prev, 0)

	dup := core.NewDuplicator("dup", 2)
	dupID := g.Add(dup)
	merge := core.NewXORMerge("merge", dup)
	mergeID := g.Add(merge)
	g.MustConnect(prev, 0, dupID)
	probe := nf.NewProbe("probe")
	e1, x1 := probe.Build(g, "b0")
	nat := nf.NewNAT("nat", netpkt.IPv4Addr(0x0a000000|uint32(rng.Intn(1<<16))))
	e2, x2 := nat.Build(g, "b1")
	g.MustConnect(dupID, 0, e1)
	g.MustConnect(dupID, 1, e2)
	g.MustConnect(x1, 0, mergeID)
	g.MustConnect(x2, 0, mergeID)

	tail := chainSegment(g, rng, mergeID, 1)
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(tail, 0, dst)
	return g
}

// buildFanoutRand splits traffic across two random branches with a
// content-based Classifier; both branches terminate in separate sinks.
// Sub-batches share their parent's ID, so this shape is only compared as a
// multiset (PreserveOrder off).
func buildFanoutRand(seed int64) *element.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := element.NewGraph()
	prev := g.Add(element.NewFromDevice("src"))
	prev = chainSegment(g, rng, prev, 0)

	cls := element.NewClassifier("cls", "parity", 2, func(p *netpkt.Packet) int {
		return int(p.Data[len(p.Data)-1]) & 1
	})
	clsID := g.Add(cls)
	g.MustConnect(prev, 0, clsID)
	for port := 0; port < 2; port++ {
		// First hop leaves the classifier on this port; the rest of the
		// branch chains off port 0 as usual.
		head := g.Add(randMid(rng, 100*(port+1)))
		g.MustConnect(clsID, port, head)
		tail := chainSegment(g, rng, head, port+2)
		dst := g.Add(element.NewToDevice(fmt.Sprintf("dst%d", port)))
		g.MustConnect(tail, 0, dst)
	}
	return g
}

func diffTraffic(seed int64, n, size int) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{
		Size: traffic.IMIX{}, Seed: seed, Flows: 64,
	})
	return gen.Batches(n, size)
}

// runSequential pushes batches through the sequential executor and returns
// every batch that reached any sink, keyed by batch ID.
func runSequential(t *testing.T, g *element.Graph, in []*netpkt.Batch) map[uint64][]*netpkt.Batch {
	t.Helper()
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]*netpkt.Batch)
	for _, b := range in {
		sinkOut, err := x.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range sinkOut {
			out[b.ID] = append(out[b.ID], bs...)
		}
	}
	return out
}

// packetKey folds the observable per-packet outcome into a comparable
// string: drop status and (for live packets) exact bytes.
func packetKey(p *netpkt.Packet) string {
	if p.Dropped {
		return "dropped"
	}
	return "live|" + string(p.Data)
}

func multiset(batches []*netpkt.Batch) map[string]int {
	m := make(map[string]int)
	for _, b := range batches {
		for _, p := range b.Packets {
			m[packetKey(p)]++
		}
	}
	return m
}

func flatten(m map[uint64][]*netpkt.Batch) []*netpkt.Batch {
	var out []*netpkt.Batch
	for _, bs := range m {
		out = append(out, bs...)
	}
	return out
}

// TestDifferentialMultiset: for random graphs (including Classifier
// fan-out with multiple sinks), the concurrent pipeline must emit exactly
// the same multiset of per-packet outcomes as the sequential executor.
func TestDifferentialMultiset(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
		"fanout":  buildFanoutRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 7
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 24, 16))
				conOut, _, err := RunBatches(context.Background(), build(seed),
					Config{QueueDepth: 1 + int(trial%3)}, diffTraffic(seed, 24, 16))
				if err != nil {
					t.Fatal(err)
				}
				want, got := multiset(flatten(seqOut)), multiset(conOut)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: seq=%d con=%d", len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: seq=%d con=%d", k, n, got[k])
					}
				}
			})
		}
	}
}

// TestDifferentialExactOrder: on single-sink graphs that emit one batch per
// input batch, PreserveOrder mode must reproduce the sequential executor's
// output exactly — same batch order, same packets, same bytes.
func TestDifferentialExactOrder(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 13
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				seqOut := runSequential(t, build(seed), diffTraffic(seed, 30, 8))
				conOut, _, err := RunBatches(context.Background(), build(seed),
					Config{PreserveOrder: true, Metrics: true, QueueDepth: 2},
					diffTraffic(seed, 30, 8))
				if err != nil {
					t.Fatal(err)
				}
				if len(conOut) != 30 {
					t.Fatalf("concurrent emitted %d batches", len(conOut))
				}
				for i, cb := range conOut {
					if cb.ID != uint64(i) {
						t.Fatalf("batch %d surfaced at position %d", cb.ID, i)
					}
					sbs := seqOut[cb.ID]
					if len(sbs) != 1 {
						t.Fatalf("sequential emitted %d batches for id %d", len(sbs), cb.ID)
					}
					sb := sbs[0]
					if len(cb.Packets) != len(sb.Packets) {
						t.Fatalf("batch %d: packet count %d vs %d", cb.ID, len(cb.Packets), len(sb.Packets))
					}
					for j := range cb.Packets {
						cp, sp := cb.Packets[j], sb.Packets[j]
						if cp.Dropped != sp.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v", cb.ID, j, cp.Dropped, sp.Dropped)
						}
						if !cp.Dropped && !bytes.Equal(cp.Data, sp.Data) {
							t.Fatalf("batch %d pkt %d: payload differs", cb.ID, j)
						}
					}
				}
			})
		}
	}
}

// buildBranchPar builds the benchmark's branch_par stage by hand — ids ∥
// probe ∥ firewall behind a Duplicator that knows all three read-only — with
// the IDS and the firewall dropping, so verdicts reached on different
// goroutines meet at the merge. It returns the Aho–Corasick node too.
func buildBranchPar(ids *nf.NF) (*element.Graph, element.NodeID) {
	nfs := []*nf.NF{
		ids,
		nf.NewProbe("probe"),
		nf.NewFirewall("fw", &acl.List{Rules: []acl.Rule{{
			SrcPort: acl.AnyPort, DstPort: acl.PortRange{Lo: 443, Hi: 443}, ProtoAny: true, Action: acl.Deny,
		}}}, false),
	}
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	dup := core.NewDuplicatorProfiled("dup", make([]bool, len(nfs)))
	dupID := g.Add(dup)
	mergeID := g.Add(core.NewXORMerge("merge", dup))
	g.MustConnect(src, 0, dupID)
	var scan element.NodeID
	for b, f := range nfs {
		entry, exit := f.Build(g, f.Name)
		if b == 0 {
			scan = exit
		}
		g.MustConnect(dupID, b, entry)
		g.MustConnect(exit, 0, mergeID)
	}
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(mergeID, 0, dst)
	return g, scan
}

// TestBranchParDifferential: the copy-free parallel stage, its scan branch
// on the emulated device, against the sequential executor on the same graph
// — live bytes and drop reasons as multisets. Input packets come from a
// private arena with poisoning on: every clone the stage drew must be back,
// and no buffer may have been recycled while a branch still read it. The
// stream IDS puts a reassembler — an element that emits a batch header of
// its own — in the scan branch.
func TestBranchParDifferential(t *testing.T) {
	mkIDS := map[string]func() *nf.NF{
		"ids":       func() *nf.NF { return nf.NewIDS("ids", []string{"q1"}, true) },
		"streamids": func() *nf.NF { return nf.NewStreamIDS("ids", []string{"q1"}, true) },
	}
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	outcomes := func(batches []*netpkt.Batch) map[string]uint64 {
		m := make(map[string]uint64)
		for _, b := range batches {
			for _, p := range b.Packets {
				if !p.Dropped {
					m["live|"+string(p.Data)]++
				} else if p.DropReason != "" {
					m["drop|"+p.DropReason]++
				}
			}
		}
		return m
	}
	for trial := int64(0); trial < 8; trial++ {
		seed := 100*(trial/2) + 19
		kind := []string{"ids", "streamids"}[trial%2]
		t.Run(fmt.Sprint(kind, trial/2), func(t *testing.T) {
			seqG, _ := buildBranchPar(mkIDS[kind]())
			x, err := element.NewExecutor(seqG)
			if err != nil {
				t.Fatal(err)
			}
			var seqOut []*netpkt.Batch
			for _, b := range diffTraffic(seed, 24, 16) {
				sinkOut, err := x.RunBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, bs := range sinkOut {
					seqOut = append(seqOut, bs...)
				}
			}
			want := outcomes(seqOut) // the executor already booked (and cleared) the drop reasons
			drops := uint64(0)
			for reason, n := range x.Stats.Drops {
				want["drop|"+reason] = n
				drops += n
			}
			if drops == 0 || drops == 24*16 {
				t.Fatalf("traffic exercises no verdict mix: %d of %d dropped", drops, 24*16)
			}

			a := netpkt.NewArena()
			in := diffTraffic(seed, 24, 16)
			for i, b := range in {
				in[i] = a.ClonePooled(b)
			}
			g, scan := buildBranchPar(mkIDS[kind]())
			cfg := Config{
				QueueDepth: 1 + int(trial%3),
				Assignment: hetsim.Assignment{scan: {Mode: hetsim.ModeGPU}},
				Offload:    &OffloadConfig{MaxOutstanding: 1 + int(trial/2)},
			}
			conOut, _, err := RunBatches(context.Background(), g, cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			got := outcomes(conOut)
			if len(got) != len(want) {
				t.Fatalf("distinct outcomes: live plane %d, executor %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("outcome %.40q: executor %d, live plane %d", k, n, got[k])
				}
			}
			for _, b := range conOut {
				b.Release()
			}
			if n := a.Outstanding(); n != 0 {
				t.Errorf("%d arena packets outstanding after the drain", n)
			}
		})
	}
}
