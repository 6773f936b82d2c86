package dataplane

// Differential gate for compiled CPU stage-loops: the compiled pipeline
// must be observationally identical to the interpreted one (DisableCompile)
// on every graph shape, traffic mix, and observability mode — multiset of
// per-packet outcomes, exact batch order under PreserveOrder, per-flow
// order under sharding. The harness reuses the random graph builders and
// traffic from differential_test.go so compiled coverage tracks whatever
// shapes the interpreted differential already explores.

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/flight"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
)

// runCompiledPair runs the same build/traffic through the compiled and the
// interpreted pipeline and returns both outputs.
func runCompiledPair(t *testing.T, build func(int64) *element.Graph, seed int64,
	cfg Config, n, per int) (compiled, interpreted []*netpkt.Batch, p *Pipeline) {
	t.Helper()
	run := func(disable bool) ([]*netpkt.Batch, *Pipeline) {
		c := cfg
		c.DisableCompile = disable
		outs, pl, err := RunBatches(context.Background(), build(seed), c,
			diffTraffic(seed, n, per))
		if err != nil {
			t.Fatal(err)
		}
		return outs, pl
	}
	compiled, p = run(false)
	interpreted, _ = run(true)
	return compiled, interpreted, p
}

// TestCompiledVsInterpretedMultiset: with observability off (no step
// hook), random graphs must emit exactly the interpreted pipeline's
// multiset of per-packet outcomes. Compiled batches must actually have
// executed across the trial set, or the test is vacuous.
func TestCompiledVsInterpretedMultiset(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
		"fanout":  buildFanoutRand,
	}
	var compiledBatches uint64
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 31
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				cout, iout, p := runCompiledPair(t, build, seed,
					Config{QueueDepth: 1 + int(trial%3)}, 24, 16)
				compiledBatches += p.snapshotOffload().CompiledBatches
				want, got := multiset(iout), multiset(cout)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: interpreted=%d compiled=%d",
						len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, n, got[k])
					}
				}
			})
		}
	}
	if compiledBatches == 0 {
		t.Fatal("no compiled stage-loop executed across any trial")
	}
}

// TestCompiledVsInterpretedExactOrder: under PreserveOrder with metrics on
// (the head booking its members), compilation must be invisible — same batch order,
// same packets, same bytes.
func TestCompiledVsInterpretedExactOrder(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 57
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				cout, iout, _ := runCompiledPair(t, build, seed,
					Config{PreserveOrder: true, Metrics: true, QueueDepth: 2}, 30, 8)
				if len(cout) != len(iout) {
					t.Fatalf("batch counts differ: compiled=%d interpreted=%d",
						len(cout), len(iout))
				}
				for i := range cout {
					cb, ib := cout[i], iout[i]
					if cb.ID != ib.ID || len(cb.Packets) != len(ib.Packets) {
						t.Fatalf("batch %d: id/count mismatch (%d/%d vs %d/%d)",
							i, cb.ID, len(cb.Packets), ib.ID, len(ib.Packets))
					}
					for j := range cb.Packets {
						cp, ip := cb.Packets[j], ib.Packets[j]
						if cp.Dropped != ip.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v",
								cb.ID, j, cp.Dropped, ip.Dropped)
						}
						if !cp.Dropped && !bytes.Equal(cp.Data, ip.Data) {
							t.Fatalf("batch %d pkt %d: payload differs under compilation", cb.ID, j)
						}
					}
				}
			})
		}
	}
}

// TestCompiledPerFlowOrderSharded: compilation inside sharded replicas must
// preserve the flow-affinity guarantee — packets of one flow surface in
// injection order — and match the interpreted shards' outcome multiset.
func TestCompiledPerFlowOrderSharded(t *testing.T) {
	build := func(int) (*element.Graph, error) { return hotChainGraph(), nil }
	const flows = 13
	run := func(disable bool) []*netpkt.Batch {
		outs, _ := runSharded(t, build,
			ShardedConfig{Shards: 4, Config: Config{QueueDepth: 2, DisableCompile: disable}},
			seqTraffic(flows, 40, 16))
		return outs
	}
	cout, iout := run(false), run(true)
	if seen := checkFlowOrder(t, cout); seen != 40*16 {
		t.Fatalf("saw %d packets, want %d", seen, 40*16)
	}
	want, got := multiset(iout), multiset(cout)
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, n, got[k])
		}
	}
}

// dieEvery consumes every mod-th batch whole (one output port, nil batch):
// the chain dies at this element for those batches.
type dieEvery struct {
	name string
	mod  uint64
}

func (e *dieEvery) Name() string           { return e.name }
func (e *dieEvery) Traits() element.Traits { return element.Traits{Kind: "DieEvery", CanDrop: true} }
func (e *dieEvery) NumOutputs() int        { return 1 }
func (e *dieEvery) Signature() string      { return "DieEvery" }
func (e *dieEvery) Process(b *netpkt.Batch) []*netpkt.Batch {
	if b.ID%e.mod == 0 {
		return []*netpkt.Batch{nil}
	}
	return []*netpkt.Batch{b}
}

// bookedChain is src -> chk -> mid -> ttl -> cnt -> dst: one compiled
// segment all-CPU, one fused segment with the interior on the GPU.
func bookedChain(mid element.Element) func(int64) *element.Graph {
	return func(int64) *element.Graph {
		g := element.NewGraph()
		prev := g.Add(element.NewFromDevice("src"))
		for _, el := range []element.Element{
			element.NewCheckIPHeader("chk"), mid, element.NewDecTTL("ttl"),
			element.NewCounter("cnt"), element.NewToDevice("dst"),
		} {
			id := g.Add(el)
			g.MustConnect(prev, 0, id)
			prev = id
		}
		return g
	}
}

// booked renders everything a Report and the elements' visit log say about
// who processed what, in a form two runs of the same traffic must agree on
// whichever goroutine did the booking: per-element batch/packet/drop
// counters, the sampled-timing counts, per-edge packets, boundary totals,
// and every (element, batch, live-in) visit. At an element the pipeline
// feeds in batch order (inOrder) the visits stay in call order and must
// ascend; elsewhere branches interleave, so they are sorted.
func booked(t *testing.T, r *Report, g *element.Graph, log *visitLog) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "in=%d/%d out=%d/%d drop=%d\n",
		r.InBatches, r.InPackets, r.OutBatches, r.OutPackets, r.DropPackets)
	for _, e := range r.Elements {
		fmt.Fprintf(&sb, "%s batches=%d in=%d out=%d drops=%d timed=%d/%d\n",
			e.Name, e.Batches, e.PktsIn, e.PktsOut, e.Drops, e.Proc.Count, e.ProcPkts)
	}
	for _, ed := range r.Edges {
		fmt.Fprintf(&sb, "edge %d[%d]->%d %d\n", ed.From, ed.Port, ed.To, ed.Packets)
	}
	visits, bad := log.snapshot()
	if bad != nil {
		t.Fatal(*bad)
	}
	ordered := inOrder(g)
	perNode := make([][]string, g.Len())
	next := make([]uint64, g.Len())
	for _, v := range visits {
		if ordered[v.node] {
			if v.batch < next[v.node] {
				t.Fatalf("element %d ran batch %d after batch %d", v.node, v.batch, next[v.node]-1)
			}
			next[v.node] = v.batch + 1
		}
		perNode[v.node] = append(perNode[v.node], fmt.Sprintf("%d live=%d", v.batch, v.live))
	}
	for id, seq := range perNode {
		if !ordered[id] {
			sort.Strings(seq)
		}
		fmt.Fprintf(&sb, "visits %d: %s\n", id, strings.Join(seq, ", "))
	}
	return sb.String()
}

// inOrder reports, per node, whether the pipeline hands it batches in
// injection order: a source does, and so does a node whose one input comes
// from such a node. Where inputs join, they interleave as they arrive.
func inOrder(g *element.Graph) []bool {
	preds := make([][]element.NodeID, g.Len())
	for _, e := range g.Edges() {
		preds[e.To] = append(preds[e.To], e.From)
	}
	order, _ := g.TopoOrder()
	ok := make([]bool, g.Len())
	for _, id := range order {
		ps := preds[id]
		ok[id] = len(ps) == 0 || len(ps) == 1 && ok[ps[0]]
	}
	return ok
}

// TestBookedReportEquality is the booking rule's gate: a segment's executor
// books on behalf of members that never see the batch, and the Report and
// the elements' visits must come out exactly as if every member had booked
// for itself — compiled against DisableCompile, fused against DisableFusion
// — including a dropper mid-segment and a chain that dies at its second
// member (nothing booked or run for the members behind it). The
// observation rule is a function of the batch ID, so every execution times
// the same batches on every member, whatever heads the segment; the sample4
// rows run each shape long enough for the rule to draw four of them.
func TestBookedReportEquality(t *testing.T) {
	type row struct {
		build func(int64) *element.Graph
		seeds int64
		// batches is the run's length (0 = 24, two observed IDs).
		batches int
		// gpu compares fusion (against DisableFusion) instead of compilation,
		// under assign, or under randAssignment when assign is nil.
		gpu    bool
		assign hetsim.Assignment
	}
	interior := hetsim.Assignment{1: {Mode: hetsim.ModeGPU}, 2: {Mode: hetsim.ModeGPU},
		3: {Mode: hetsim.ModeGPU}, 4: {Mode: hetsim.ModeGPU}}
	dropper := bookedChain(&contentDrop{name: "drop", mod: 3})
	dies := bookedChain(&dieEvery{name: "die", mod: 3})
	const sample4 = 48 // IDs 0..47: the rule observes 0, 13, 34 and 47
	rows := map[string]row{
		"linear":              {build: buildLinearRand, seeds: 4},
		"linear/sample4":      {build: buildLinearRand, seeds: 4, batches: sample4},
		"diamond":             {build: buildDiamondRand, seeds: 4},
		"diamond/sample4":     {build: buildDiamondRand, seeds: 2, batches: sample4},
		"fanout":              {build: buildFanoutRand, seeds: 4},
		"fanout/sample4":      {build: buildFanoutRand, seeds: 2, batches: sample4},
		"dropper":             {build: dropper, seeds: 1},
		"dies":                {build: dies, seeds: 1},
		"gpu/linear":          {build: buildLinearRand, seeds: 4, gpu: true},
		"gpu/linear/sample4":  {build: buildLinearRand, seeds: 2, batches: sample4, gpu: true},
		"gpu/diamond":         {build: buildDiamondRand, seeds: 4, gpu: true},
		"gpu/diamond/sample4": {build: buildDiamondRand, seeds: 2, batches: sample4, gpu: true},
		"gpu/fanout":          {build: buildFanoutRand, seeds: 4, gpu: true},
		"gpu/dropper":         {build: dropper, seeds: 1, gpu: true, assign: interior},
		"gpu/dies":            {build: dies, seeds: 1, gpu: true, assign: interior},
	}
	var segmentBatches uint64
	for name, r := range rows {
		for trial := int64(0); trial < r.seeds; trial++ {
			seed := 100*trial + 57
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				batches := r.batches
				if batches == 0 {
					batches = 24
				}
				run := func(reference bool) (string, OffloadSnapshot) {
					g, log := recordVisits(r.build(seed))
					cfg := Config{QueueDepth: 2, Metrics: true}
					if r.gpu {
						cfg.Assignment = r.assign
						if cfg.Assignment == nil {
							cfg.Assignment = randAssignment(r.build(seed), seed)
						}
						cfg.Offload = &OffloadConfig{MaxOutstanding: 4, DisableFusion: reference}
					} else {
						cfg.DisableCompile = reference
					}
					in := diffTraffic(seed, batches, 16)
					observed := uint64(observedIDs(in))
					_, p, err := RunBatches(context.Background(), g, cfg, in)
					if err != nil {
						t.Fatal(err)
					}
					rep := p.Snapshot()
					// The source sees every batch once: it is timed on exactly
					// the observed IDs, and equality below carries that to
					// whoever booked the rest.
					if src := rep.Elements[0]; src.Batches != uint64(batches) || src.Proc.Count != observed || observed == 0 {
						t.Fatalf("source: %d batches, %d timed; want %d and the %d observed IDs", src.Batches, src.Proc.Count, batches, observed)
					}
					return booked(t, rep, g, log), rep.Offload
				}
				got, o := run(false)
				want, _ := run(true)
				if got != want {
					t.Fatalf("booking differs from the per-member reference\n--- segment executor:\n%s\n--- reference:\n%s", got, want)
				}
				if r.gpu {
					segmentBatches += o.FusedSegments
				} else {
					segmentBatches += o.CompiledBatches
				}
			})
		}
	}
	if segmentBatches == 0 {
		t.Fatal("no segment executed across any row")
	}
}

// TestCompiledHotPathAllocs extends the 0-alloc guard to the compiled
// stage-loop, with observability off and with everything nfcompass ships on
// (Metrics + Flight): it must stay allocation-free in steady state, and it
// must actually be the path taken — every compiled batch elides every
// interior hop (members − 1), watched or not. The interpreted arm pins the
// same bound with compilation off, so a regression in either path is
// attributed correctly.
func TestCompiledHotPathAllocs(t *testing.T) {
	arms := map[string]Config{
		"compiled":         {QueueDepth: 4},
		"compiled+metrics": {QueueDepth: 4, Metrics: true, Flight: flight.New(flight.Config{})},
		"interpreted":      {QueueDepth: 4, DisableCompile: true},
	}
	for name, cfg := range arms {
		t.Run(name, func(t *testing.T) {
			g := hotChainGraph()
			p, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p.Start(context.Background())
			tmpl := hotTemplate(32)
			iter := func() {
				b := tmpl.ClonePooled()
				p.In() <- b
				out := <-p.Out()
				out.Release()
			}
			for i := 0; i < 64; i++ {
				iter()
			}
			allocs := testing.AllocsPerRun(200, iter)
			p.CloseInput()
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			o := p.snapshotOffload()
			if cfg.DisableCompile {
				if o.CompiledBatches != 0 {
					t.Fatalf("DisableCompile ran %d compiled batches", o.CompiledBatches)
				}
			} else {
				if o.CompiledBatches == 0 {
					t.Fatal("compiled stage-loop never executed on the hot chain")
				}
				// The segment is every element but the sink.
				if want := o.CompiledBatches * uint64(g.Len()-2); o.CompiledHopsSaved != want {
					t.Fatalf("CompiledHopsSaved = %d over %d batches, want %d",
						o.CompiledHopsSaved, o.CompiledBatches, want)
				}
			}
			if allocs > 0 {
				t.Fatalf("%s hot path: %.2f allocs/op, want 0", name, allocs)
			}
		})
	}
}

// TestHotSwapMidCompiledSegmentZeroLoss mirrors the fused-segment swap
// test on the CPU side: hot-swapping between the compiled all-CPU
// placement and placements that break the segment (GPU / split members)
// while batches are mid-chain loses zero packets, preserves batch order,
// and never lets one element run under two placements — or two segment
// identities — within one epoch.
func TestHotSwapMidCompiledSegmentZeroLoss(t *testing.T) {
	// Cycle between the compiled all-CPU placement, a placement that breaks
	// the compiled segment in the middle (member 2 on the GPU), and a split
	// member — forming and re-forming the stage-loop while work is in
	// flight.
	swaps := []hetsim.Assignment{
		{2: {Mode: hetsim.ModeGPU}},
		nil, // all-CPU: the whole chain compiles into one stage-loop
		{1: {Mode: hetsim.ModeSplit, GPUFraction: 0.5}, 3: {Mode: hetsim.ModeGPU}},
		nil,
	}
	for _, qd := range []int{1, 2} {
		t.Run(fmt.Sprintf("qd=%d", qd), func(t *testing.T) {
			g, probe := hotSwapProbeChain()
			p := auditHotSwap(t, g, qd,
				OffloadConfig{Devices: 2, MaxOutstanding: 4, AggregateLimit: 3}, swaps, 90, 10)
			if bad := probe.bad.Load(); bad != nil {
				t.Fatal(*bad)
			}
			if p.snapshotOffload().CompiledBatches == 0 {
				t.Fatal("no compiled stage-loop executed: swap schedule never reached the compiled placement")
			}
		})
	}
}

// badFanout declares one output port but starts violating the contract
// after a few batches: returning its input twice, or nothing at all. The
// shape a buggy element's bug takes mid-stage-loop.
type badFanout struct {
	name  string
	after int
	empty bool // return zero outputs instead of a duplicate
	seen  int
}

func (e *badFanout) Name() string           { return e.name }
func (e *badFanout) Traits() element.Traits { return element.Traits{Kind: "BadFanout"} }
func (e *badFanout) NumOutputs() int        { return 1 }
func (e *badFanout) Signature() string      { return "BadFanout" }
func (e *badFanout) Process(b *netpkt.Batch) []*netpkt.Batch {
	e.seen++
	if e.seen > e.after {
		if e.empty {
			return nil
		}
		return []*netpkt.Batch{b, b}
	}
	return []*netpkt.Batch{b}
}

// TestCompiledDrainAudit: a member erroring mid-segment — a compiled
// stage-loop with observability off and on, or a fused device segment —
// must surface the contract violation as a pipeline error, not a deadlock,
// and the segment must release its working set back to the arena exactly
// once. Pool poisoning turns a double release into a panic and runs under
// -race in CI, so surviving the run is the exactly-once assertion.
func TestCompiledDrainAudit(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	arms := map[string]Config{
		"metrics=false": {QueueDepth: 2},
		"metrics=true":  {QueueDepth: 2, Metrics: true},
		"gpu": {QueueDepth: 2, Metrics: true, Assignment: hetsim.Assignment{
			1: {Mode: hetsim.ModeGPU}, 2: {Mode: hetsim.ModeGPU}, 3: {Mode: hetsim.ModeGPU}}},
	}
	for arm, cfg := range arms {
		for _, empty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/empty=%v", arm, empty), func(t *testing.T) {
				g := element.NewGraph()
				src := g.Add(element.NewFromDevice("src"))
				chk := g.Add(element.NewCheckIPHeader("chk"))
				bad := g.Add(&badFanout{name: "bad", after: 5, empty: empty})
				ttl := g.Add(element.NewDecTTL("ttl"))
				dst := g.Add(element.NewToDevice("dst"))
				g.MustConnect(src, 0, chk)
				g.MustConnect(chk, 0, bad)
				g.MustConnect(bad, 0, ttl)
				g.MustConnect(ttl, 0, dst)

				tmpl := hotTemplate(16)
				in := make([]*netpkt.Batch, 20)
				for i := range in {
					in[i] = tmpl.ClonePooled()
					in[i].ID = uint64(i)
				}
				outs, p, err := RunBatches(context.Background(), g, cfg, in)
				if err == nil {
					t.Fatal("contract violation did not surface as a pipeline error")
				}
				if o := p.snapshotOffload(); o.CompiledBatches+o.FusedSegments == 0 {
					t.Fatal("violation did not occur inside a segment")
				}
				// Batches that completed before the violation are still owned
				// by the collector; returning them must not double-release.
				for _, b := range outs {
					b.Release()
				}
			})
		}
	}
}

// FuzzCompiledVsInterpreted is the differential fuzz gate: arbitrary
// (graph shape, traffic, queue depth) draws must classify identically
// under the compiled and interpreted pipelines — multiset on fan-out
// shapes, byte-exact order on single-sink shapes.
func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add(int64(7), uint8(0), uint8(12), uint8(8), uint8(0))
	f.Add(int64(113), uint8(1), uint8(24), uint8(16), uint8(1))
	f.Add(int64(2026), uint8(2), uint8(6), uint8(4), uint8(2))
	f.Add(int64(57), uint8(2), uint8(20), uint8(12), uint8(0x81)) // fan-out with metrics on
	f.Fuzz(func(t *testing.T, seed int64, shape, nb, per, qd uint8) {
		builders := []func(int64) *element.Graph{
			buildLinearRand, buildDiamondRand, buildFanoutRand,
		}
		shape %= 3
		build := builders[shape]
		n := 1 + int(nb%24)
		pb := 1 + int(per%16)
		cfg := Config{QueueDepth: 1 + int((qd&0x7f)%3)}
		exact := shape != 2 // fanout has multiple sinks: multiset only
		cfg.PreserveOrder = exact
		cfg.Metrics = exact || qd&0x80 != 0
		run := func(disable bool) ([]*netpkt.Batch, string) {
			c := cfg
			c.DisableCompile = disable
			g, log := recordVisits(build(seed))
			outs, p, err := RunBatches(context.Background(), g, c,
				diffTraffic(seed, n, pb))
			if err != nil {
				t.Fatal(err)
			}
			return outs, booked(t, p.Snapshot(), g, log)
		}
		cout, cbooked := run(false)
		iout, ibooked := run(true)
		if cbooked != ibooked {
			t.Fatalf("booking differs under compilation\n--- compiled:\n%s\n--- interpreted:\n%s", cbooked, ibooked)
		}
		want, got := multiset(iout), multiset(cout)
		if len(want) != len(got) {
			t.Fatalf("distinct outcomes differ: interpreted=%d compiled=%d", len(want), len(got))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("outcome %.40q: interpreted=%d compiled=%d", k, c, got[k])
			}
		}
		if !exact {
			return
		}
		if len(cout) != len(iout) {
			t.Fatalf("batch counts differ: compiled=%d interpreted=%d", len(cout), len(iout))
		}
		for i := range cout {
			cb, ib := cout[i], iout[i]
			if cb.ID != ib.ID || len(cb.Packets) != len(ib.Packets) {
				t.Fatalf("batch %d: id/count mismatch", i)
			}
			for j := range cb.Packets {
				cp, ip := cb.Packets[j], ib.Packets[j]
				if cp.Dropped != ip.Dropped ||
					(!cp.Dropped && !bytes.Equal(cp.Data, ip.Data)) {
					t.Fatalf("batch %d pkt %d: outcome differs under compilation", cb.ID, j)
				}
			}
		}
	})
}
