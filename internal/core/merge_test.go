package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
)

func mergeBatch(n int) *netpkt.Batch {
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		pkts[i] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: netpkt.IPv4Addr(0x0a000001 + i), DstIP: 0x0b000001,
			SrcPort: uint16(5000 + i), DstPort: 80,
			Payload: []byte("hello merge world"),
			FlowID:  uint64(i),
		})
	}
	return netpkt.NewBatch(7, pkts)
}

// buildParallelDiamond wires src -> dup -> {branches} -> merge -> dst, every
// branch conservatively a writer.
func buildParallelDiamond(branches ...*nf.NF) (*element.Graph, element.NodeID) {
	return buildStage(branches, false)
}

// stageWriters derives the per-branch writer flags the way
// buildGraph does; unprofiled stages treat every branch as one.
func stageWriters(nfs []*nf.NF, profiled bool) []bool {
	writers := make([]bool, len(nfs))
	for i, f := range nfs {
		writers[i] = !profiled || f.Profile.WritesHeader || f.Profile.WritesPayload ||
			f.Profile.AddRmBits
	}
	return writers
}

// buildStage wires the NFs as one parallel stage, branch i = nfs[i], with
// nf.BuildChain's element names so drop reasons compare across the two.
func buildStage(nfs []*nf.NF, profiled bool) (*element.Graph, element.NodeID) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	dup := NewDuplicatorProfiled("dup", stageWriters(nfs, profiled))
	dupID := g.Add(dup)
	mergeID := g.Add(NewXORMerge("merge", dup))
	g.MustConnect(src, 0, dupID)
	for b, f := range nfs {
		entry, exit := f.Build(g, fmt.Sprintf("%s#%d", f.Name, b))
		g.MustConnect(dupID, b, entry)
		g.MustConnect(exit, 0, mergeID)
	}
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(mergeID, 0, dst)
	return g, dst
}

func runGraph(t *testing.T, g *element.Graph, dst element.NodeID, b *netpkt.Batch) *netpkt.Batch {
	t.Helper()
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[dst]) == 0 {
		t.Fatal("nothing reached the sink")
	}
	return out[dst][0]
}

// Parallel {probe, NAT} must equal sequential probe -> NAT.
func TestParallelMergeEqualsSequential(t *testing.T) {
	public := netpkt.IPv4Addr(0x01020304)
	mkChain := func() []*nf.NF {
		return []*nf.NF{nf.NewProbe("probe"), nf.NewNAT("nat", public)}
	}

	seqG, _, seqDst := nf.BuildChain(mkChain())
	seqOut := runGraph(t, seqG, seqDst, mergeBatch(8))

	chain := mkChain()
	parG, parDst := buildParallelDiamond(chain[0], chain[1])
	parOut := runGraph(t, parG, parDst, mergeBatch(8))

	if seqOut.Live() != parOut.Live() {
		t.Fatalf("live: seq=%d par=%d", seqOut.Live(), parOut.Live())
	}
	for i := range seqOut.Packets {
		if !bytes.Equal(seqOut.Packets[i].Data, parOut.Packets[i].Data) {
			t.Fatalf("packet %d differs between sequential and parallel", i)
		}
	}
}

// A drop in any branch drops the merged packet.
func TestMergeDropWins(t *testing.T) {
	ids := nf.NewIDS("ids", []string{"hello"}, true) // matches every payload
	probe := nf.NewProbe("probe")
	g, dst := buildParallelDiamond(probe, ids)
	out := runGraph(t, g, dst, mergeBatch(4))
	if out.Live() != 0 {
		t.Fatalf("IDS branch dropped everything but %d packets survive", out.Live())
	}
}

// Disjoint-region writers merge cleanly: NAT (header) with Proxy (payload).
func TestMergeDisjointWriters(t *testing.T) {
	public := netpkt.IPv4Addr(0x01020304)
	nat := nf.NewNAT("nat", public)
	proxy := nf.NewProxy("px", []byte("XYZ"))
	g, dst := buildParallelDiamond(nat, proxy)
	out := runGraph(t, g, dst, mergeBatch(4))
	if out.Live() != 4 {
		t.Fatalf("live = %d", out.Live())
	}
	for _, p := range out.Packets {
		_ = p.Parse()
		ip, err := netpkt.ParseIPv4(p.L3())
		if err != nil {
			t.Fatal(err)
		}
		if ip.Src != public {
			t.Errorf("NAT write lost in merge: src = %v", ip.Src)
		}
		if !bytes.HasPrefix(p.Payload(), []byte("XYZ")) {
			t.Errorf("proxy write lost in merge: payload = %q", p.Payload()[:8])
		}
	}
}

// A single length-changing branch is adopted wholesale.
func TestMergeLengthChangeAdopted(t *testing.T) {
	gw := nf.NewIPsecGateway("gw", 5, []byte("0123456789abcdef"), []byte("a"))
	probe := nf.NewProbe("probe")
	g, dst := buildParallelDiamond(probe, gw)
	in := mergeBatch(3)
	origLen := in.Packets[0].Len()
	out := runGraph(t, g, dst, in)
	if out.Live() != 3 {
		t.Fatalf("live = %d", out.Live())
	}
	for _, p := range out.Packets {
		if p.Len() <= origLen {
			t.Errorf("ESP growth lost in merge: len %d <= %d", p.Len(), origLen)
		}
	}
}

// Two length-changing branches conflict and fail safe.
func TestMergeLengthConflictDrops(t *testing.T) {
	gw1 := nf.NewIPsecGateway("gw1", 5, []byte("0123456789abcdef"), []byte("a"))
	gw2 := nf.NewIPsecGateway("gw2", 6, []byte("fedcba9876543210"), []byte("b"))
	g, dst := buildParallelDiamond(gw1, gw2)
	out := runGraph(t, g, dst, mergeBatch(2))
	if out.Live() != 0 {
		t.Fatal("length conflict not failed safe")
	}
}

func TestMergeAnnotations(t *testing.T) {
	lb := nf.NewLoadBalancer("lb", 4)
	probe := nf.NewProbe("probe")
	g, dst := buildParallelDiamond(probe, lb)
	out := runGraph(t, g, dst, mergeBatch(16))
	painted := false
	for _, p := range out.Packets {
		if p.Paint != 0 {
			painted = true
		}
	}
	if !painted {
		t.Error("LB paint annotation lost in merge")
	}
}

// Reset returns the parked copies of a stage that will never complete — one
// branch at the merge, the other lost in flight — to their arena, and leaves
// the original batch to the injector, who may still hold (and release) it.
func TestDuplicatorAndMergeReset(t *testing.T) {
	a := netpkt.NewArena()
	dup := NewDuplicatorProfiled("d", []bool{false, true})
	m := NewXORMerge("m", dup)
	in := a.ClonePooled(mergeBatch(2))
	outs := dup.Process(in)
	if out := m.Process(outs[0]); out[0] != nil {
		t.Fatal("merge emitted before every branch delivered")
	}
	outs[1].Release() // the copy that never reached the merge
	dup.Reset()
	m.Reset()
	if len(m.pending) != 0 || dup.CopiedBytes != 0 {
		t.Error("reset did not clear state")
	}
	in.Release() // panics if Reset released it too
	if n := a.Outstanding(); n != 0 {
		t.Errorf("reset left %d arena packets outstanding", n)
	}
}

func TestMergeTraitsAndAccessors(t *testing.T) {
	dup := NewDuplicator("d", 3)
	m := NewXORMerge("m", dup)
	if dup.NumOutputs() != 3 || m.NumOutputs() != 1 {
		t.Error("port counts wrong")
	}
	if m.ExpectedInputs() != 3 {
		t.Error("ExpectedInputs wrong")
	}
	if dup.Signature() == "" || m.Signature() == "" {
		t.Error("empty signatures")
	}
	if dup.Traits().Kind != "Duplicator" || m.Traits().Kind != "XORMerge" {
		t.Error("kinds wrong")
	}
}

// stageMixes is the writer × reader × dropper table of the merge
// differential: each entry is one parallel stage, NFs in chain order (=
// branch order). Every mix is hazard-free (no branch reads what an earlier
// one writes) and keeps the stateful writers — NAT port allocation, the ESP
// sequence number — ahead of any dropper, so they see the same packets in
// both shapes and the sequential chain is an oracle for the wire bytes too.
var stageMixes = []struct {
	name string
	mk   func() []*nf.NF
}{
	{"readers+droppers", func() []*nf.NF { return []*nf.NF{mixIDS("ids"), nf.NewProbe("probe"), mixFirewall()} }},
	{"dropper-twice", func() []*nf.NF { return []*nf.NF{mixIDS("ids"), mixIDS("ids2")} }},
	{"reader+writer", func() []*nf.NF { return []*nf.NF{nf.NewProbe("probe"), mixNAT()} }},
	{"writer+writer", func() []*nf.NF { return []*nf.NF{mixNAT(), mixProxy()} }},
	{"writers+droppers", func() []*nf.NF { return []*nf.NF{mixNAT(), mixProxy(), mixIDS("ids"), mixFirewall()} }},
	{"dropper+writer", func() []*nf.NF { return []*nf.NF{mixFirewall(), mixProxy()} }},
	{"paint+reader", func() []*nf.NF { return []*nf.NF{nf.NewLoadBalancer("lb", 4), nf.NewProbe("probe")} }},
	{"paint+writer+dropper", func() []*nf.NF { return []*nf.NF{nf.NewLoadBalancer("lb", 4), mixNAT(), mixFirewall()} }},
	{"length-changer", func() []*nf.NF {
		return []*nf.NF{nf.NewProbe("probe"), nf.NewLoadBalancer("lb", 4),
			nf.NewIPsecGateway("gw", 5, []byte("0123456789abcdef"), []byte("a"))}
	}},
	// Branches whose elements emit a batch header of their own: the merge
	// must still recognise what arrives as the stage's branch.
	{"stream-reader", func() []*nf.NF {
		return []*nf.NF{nf.NewStreamIDS("sids", []string{"attack"}, true), nf.NewProbe("probe"), mixFirewall()}
	}},
	{"reheadering-writer", func() []*nf.NF { return []*nf.NF{nf.NewProbe("probe"), mixReheader(), mixFirewall()} }},
}

// mixReheader is a writer branch whose element emits every packet under a
// batch header of its own, as an element that may lengthen the batch does.
func mixReheader() *nf.NF {
	return &nf.NF{Name: "rehdr", Kind: nf.KindIPsec, Profile: nf.TableII[nf.KindIPsec],
		Build: func(g *element.Graph, prefix string) (element.NodeID, element.NodeID) {
			id := g.Add(&reheader{name: prefix + "/rehdr"})
			return id, id
		}}
}

// reheader declares a header and payload writer that may change packet
// lengths; it forwards every packet whole under a fresh Batch.Derive header.
type reheader struct{ name string }

func (e *reheader) Name() string      { return e.name }
func (e *reheader) NumOutputs() int   { return 1 }
func (e *reheader) Signature() string { return "Reheader" }
func (e *reheader) Traits() element.Traits {
	return element.Traits{
		Kind: "Reheader", Class: element.ClassModifier,
		ReadsHeader: true, WritesHeader: true, WritesPayload: true,
		AddsRemovesBytes: true, PreservesHeaderValidity: true,
	}
}
func (e *reheader) Process(b *netpkt.Batch) []*netpkt.Batch {
	return []*netpkt.Batch{b.Derive(append([]*netpkt.Packet(nil), b.Packets...))}
}

func mixIDS(name string) *nf.NF { return nf.NewIDS(name, []string{"attack"}, true) }
func mixNAT() *nf.NF            { return nf.NewNAT("nat", netpkt.IPv4Addr(0x01020304)) }
func mixProxy() *nf.NF          { return nf.NewProxy("px", []byte("XYZ")) }

// mixFirewall denies on the destination port alone — a field the NAT leaves
// alone, so the verdict is the same before and after translation.
func mixFirewall() *nf.NF {
	return nf.NewFirewall("fw", &acl.List{Rules: []acl.Rule{{
		SrcPort: acl.AnyPort, DstPort: acl.PortRange{Lo: 22, Hi: 22}, ProtoAny: true, Action: acl.Deny,
	}}}, false)
}

// stageTraffic builds n packets steered by spec, one byte per packet (cycled):
// bit 0 aims the packet at the firewall's denied port, bit 1 plants the IDS
// pattern behind the proxy's rewrite window, the rest sizes the payload.
func stageTraffic(spec []byte, n int) *netpkt.Batch {
	if len(spec) == 0 {
		spec = []byte{0, 1, 2, 3, 40, 81, 122, 163, 4, 7}
	}
	pkts := make([]*netpkt.Packet, n)
	for i := range pkts {
		c := spec[i%len(spec)]
		dport := uint16(80)
		if c&1 != 0 {
			dport = 22
		}
		payload := []byte(fmt.Sprintf("pkt%03d--", i))
		if c&2 != 0 {
			payload = append(payload, "attack"...)
		}
		payload = append(payload, bytes.Repeat([]byte{'a' + c%26}, int(c>>2))...)
		pkts[i] = netpkt.BuildUDPv4(netpkt.UDPPacketSpec{
			SrcIP: netpkt.IPv4Addr(0x0a000001 + i%5), DstIP: 0x0b000001,
			SrcPort: uint16(5000 + i%7), DstPort: dport,
			Payload: payload, FlowID: uint64(1 + i%5),
		})
	}
	return netpkt.NewBatch(7, pkts)
}

// verdict is what the differential compares per packet slot.
type verdict struct {
	dropped bool
	data    string
	paint   byte
	anno    [16]byte
}

func verdicts(b *netpkt.Batch) []verdict {
	out := make([]verdict, len(b.Packets))
	for i, p := range b.Packets {
		if out[i].dropped = p.Dropped; !p.Dropped {
			out[i] = verdict{data: string(p.Data), paint: p.Paint, anno: p.UserAnno}
		}
	}
	return out
}

// dropTally counts the merged batch's drops by reason, as a sink would.
func dropTally(b *netpkt.Batch) map[string]uint64 {
	m := make(map[string]uint64)
	for _, p := range b.Packets {
		if p.Dropped && p.DropReason != "" {
			m[p.DropReason]++
		}
	}
	return m
}

// sequential runs the NFs as the plain chain through the executor.
func sequential(t *testing.T, nfs []*nf.NF, in *netpkt.Batch) ([]verdict, map[string]uint64) {
	t.Helper()
	g, _, dst := nf.BuildChain(nfs)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts(out[dst][0]), x.Stats.Drops
}

// runStage drives Duplicator -> branches -> XORMerge by hand, delivering the
// branch batches to the merge in the given arrival order.
func runStage(t *testing.T, nfs []*nf.NF, profiled bool, in *netpkt.Batch, arrival []int) *netpkt.Batch {
	t.Helper()
	dup := NewDuplicatorProfiled("dup", stageWriters(nfs, profiled))
	merge := NewXORMerge("merge", dup)
	parts := dup.Process(in)
	for i, f := range nfs {
		g := element.NewGraph()
		entry, exit := f.Build(g, fmt.Sprintf("%s#%d", f.Name, i))
		for id := entry; ; id = g.Successors(id)[0][0] {
			parts[i] = g.Node(id).Process(parts[i])[0]
			if id == exit {
				break
			}
		}
	}
	var merged *netpkt.Batch
	for k, br := range arrival {
		if merged != nil {
			t.Fatalf("merge emitted after %d of %d branches", k, len(arrival))
		}
		merged = merge.Process(parts[br])[0]
	}
	if merged != in {
		t.Fatalf("merge emitted %p, want the original batch %p", merged, in)
	}
	return merged
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int(nil), p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// checkStage runs one mix as a parallel stage — through the executor, and by
// hand in every branch arrival order — on packets drawn from a private arena
// with pool poisoning on, and requires the sequential chain's wire bytes,
// drops, drop-reason tally and annotations every time. Each pass recycles
// the previous pass's buffers, so a buffer released while still aliased
// shows up as poison in a later pass; the arena must end empty.
func checkStage(t *testing.T, mk func() []*nf.NF, profiled bool, tmpl *netpkt.Batch) {
	t.Helper()
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	a := netpkt.NewArena()
	want, wantDrops := sequential(t, mk(), tmpl.Clone())
	check := func(how string, got *netpkt.Batch, gotDrops map[string]uint64) {
		t.Helper()
		if !reflect.DeepEqual(gotDrops, wantDrops) {
			t.Errorf("%s: drops %v, sequential chain %v", how, gotDrops, wantDrops)
		}
		for i, v := range verdicts(got) {
			if v != want[i] {
				t.Errorf("%s: packet %d = %+v\nsequential chain: %+v", how, i, v, want[i])
			}
		}
		got.Release()
	}

	g, dst := buildStage(mk(), profiled)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(a.ClonePooled(tmpl))
	if err != nil {
		t.Fatal(err)
	}
	check("executor", out[dst][0], x.Stats.Drops)

	for _, arrival := range permutations(len(mk())) {
		merged := runStage(t, mk(), profiled, a.ClonePooled(tmpl), arrival)
		check(fmt.Sprint("arrival ", arrival), merged, dropTally(merged))
	}
	if n := a.Outstanding(); n != 0 {
		t.Errorf("%d arena packets outstanding after the last release", n)
	}
}

func TestMergeVsSequential(t *testing.T) {
	for _, mix := range stageMixes {
		for _, profiled := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/profiled=%v", mix.name, profiled), func(t *testing.T) {
				checkStage(t, mix.mk, profiled, stageTraffic(nil, 24))
			})
		}
	}
}

// A packet dropped by two branches is booked once, under the first one's
// name — what the sequential chain reports — whichever branch arrives last.
func TestMergeDropBookedOnce(t *testing.T) {
	mk := stageMixes[1].mk // ids ∥ ids2, both drop every packet below
	tmpl := stageTraffic([]byte{2}, 4)
	g, dst := buildStage(mk(), true)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := x.RunBatch(tmpl.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"ids#0/ac": 4}
	if out[dst][0].Live() != 0 || !reflect.DeepEqual(x.Stats.Drops, want) {
		t.Errorf("executor booked %v (live %d), want %v", x.Stats.Drops, out[dst][0].Live(), want)
	}
	for _, arrival := range permutations(2) {
		if got := dropTally(runStage(t, mk(), true, tmpl.Clone(), arrival)); !reflect.DeepEqual(got, want) {
			t.Errorf("arrival %v: drops %v, want %v", arrival, got, want)
		}
	}
}

// Steady state, a stage of read-only branches on arena packets allocates
// nothing per packet: headers, batch headers and the merge's bookkeeping all
// recycle, leaving the duplicator's output vector (Process hands a fresh one
// to its caller by contract).
func TestParallelStageAllocs(t *testing.T) {
	a := netpkt.NewArena()
	tmpl := stageTraffic(nil, 64)
	dup := NewDuplicatorProfiled("dup", []bool{false, false, false})
	merge := NewXORMerge("merge", dup)
	host := element.NewHostBackend()
	branches := []element.Element{element.NewCounter("c0"), element.NewCounter("c1"), element.NewCounter("c2")}
	pass := func() {
		var merged *netpkt.Batch
		for i, part := range dup.Process(a.ClonePooled(tmpl)) {
			part = host.Process(branches[i], part)[0]
			merged = host.Process(merge, part)[0]
		}
		merged.Release()
	}
	for i := 0; i < 8; i++ {
		pass() // fill the pools
	}
	if got := testing.AllocsPerRun(200, pass); got > 1 {
		t.Errorf("%.1f allocs per batch through a read-only stage, want <= 1", got)
	}
	if n := a.Outstanding(); n != 0 {
		t.Errorf("%d arena packets outstanding", n)
	}
}

// FuzzMergeVsSequential is TestMergeVsSequential over fuzzer-chosen mixes,
// writer flags, batch sizes and packet contents.
func FuzzMergeVsSequential(f *testing.F) {
	for i := range stageMixes {
		f.Add(uint8(i), true, uint8(24), []byte(nil))
		f.Add(uint8(i), false, uint8(5), []byte{3, 254, 0, 9})
	}
	f.Fuzz(func(t *testing.T, mix uint8, profiled bool, n uint8, spec []byte) {
		checkStage(t, stageMixes[int(mix)%len(stageMixes)].mk, profiled, stageTraffic(spec, 1+int(n)%32))
	})
}

// A batch that did not come through the paired duplicator joins no stage:
// the merge counts it, releases it and emits nothing (the path offline
// profiling prices the element on). The header stays readable for the caller.
func TestMergeUnpairedBatch(t *testing.T) {
	a := netpkt.NewArena()
	m := NewXORMerge("m", NewDuplicator("d", 2))
	stray := a.ClonePooled(mergeBatch(2))
	if out := m.Process(stray); len(out) != 1 || out[0] != nil {
		t.Fatalf("unpaired batch emitted %v", out)
	}
	if m.MergeErrors != 1 || len(m.pending) != 0 || m.DiffedBytes != 0 {
		t.Errorf("errors=%d pending=%d diffed=%d", m.MergeErrors, len(m.pending), m.DiffedBytes)
	}
	if n := a.Outstanding(); n != 0 || stray.ID != 7 {
		t.Errorf("outstanding=%d id=%d after the merge consumed the stray batch", n, stray.ID)
	}
}

// A read-only branch may keep its alias of a packet past the merge — the
// stream IDS's reassembler holds an out-of-order segment until the gap
// closes. The merged original is released and its buffer recycled (and
// poisoned) in between; the held segment must still read its own bytes, seen
// here as the verdict on the rest of the flow once the pattern in it is
// scanned.
func TestMergeHeldAlias(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)
	a := netpkt.NewArena()
	// Each batch is one segment of the flow behind a packet of another flow
	// (a batch the reassembler empties is not forwarded at all).
	seg := func(seq uint32, payload string) *netpkt.Batch {
		return a.ClonePooled(netpkt.NewBatch(uint64(seq), []*netpkt.Packet{
			netpkt.BuildUDPv4(netpkt.UDPPacketSpec{SrcIP: 0x0a000002, DstIP: 0x0b000001,
				SrcPort: 53, DstPort: 53, Payload: []byte("filler"), FlowID: 2}),
			netpkt.BuildTCPv4(netpkt.TCPPacketSpec{SrcIP: 0x0a000001, DstIP: 0x0b000001,
				SrcPort: 5000, DstPort: 80, Seq: seq, Payload: []byte(payload), FlowID: 1}),
		}))
	}
	g, dst := buildStage([]*nf.NF{nf.NewStreamIDS("sids", []string{"attack"}, true), nf.NewProbe("probe")}, true)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	for _, in := range []*netpkt.Batch{
		seg(1000, "aaaa"), seg(1008, "attack"), // 1008 waits for 1004
		seg(1004, "bbbb"), seg(1014, "cccc"), // ... which releases it: the flow is tainted from here
	} {
		out, err := x.RunBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, out[dst][0].Live())
		out[dst][0].Release()
	}
	if want := []int{2, 2, 2, 1}; !reflect.DeepEqual(live, want) {
		t.Errorf("live packets per batch %v, want %v: the held segment lost its bytes", live, want)
	}
	if n := a.Outstanding(); n != 0 {
		t.Errorf("%d arena packets outstanding", n)
	}
}
