package core

import (
	"bytes"
	"testing"

	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

func fwNF(name string) *nf.NF {
	list := acl.Generate(50, 3)
	return nf.NewFirewall(name, list, true)
}

func idsNoDropNF(name string) *nf.NF {
	return nf.NewIDS(name, []string{"attack", "evil"}, false)
}

func routerNF(name string) *nf.NF {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	return nf.NewIPv4Router(name, trie.BuildDir24_8(&tr), "default")
}

// buildLinear instantiates a chain of NFs into a bare linear graph.
func buildLinear(nfs ...*nf.NF) *element.Graph {
	g := element.NewGraph()
	var prev element.NodeID = -1
	for i, f := range nfs {
		e, x := f.Build(g, f.Name+string(rune('A'+i)))
		if prev >= 0 {
			g.MustConnect(prev, 0, e)
		}
		prev = x
	}
	return g
}

func trafficBatches(n, size int) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: 42})
	return gen.Batches(n, size)
}

// Fig. 10: chaining a firewall and an IDS duplicates the header
// classifier; synthesis removes the duplicate.
func TestSynthesizeRemovesDuplicateClassifier(t *testing.T) {
	g := buildLinear(fwNF("fw"), idsNoDropNF("ids"))
	before := g.Len()
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 {
		t.Fatalf("Removed = %v, want one duplicate CheckIPHeader", rep.Removed)
	}
	if g.Len() != before-1 || rep.After != rep.Before-1 {
		t.Errorf("sizes: %d -> %d (report %d -> %d)", before, g.Len(), rep.Before, rep.After)
	}
	if _, err := linearSequence(g); err != nil {
		t.Fatalf("not linear after synthesis: %v", err)
	}
}

// The telco chain FW -> Router -> NAT re-checks the IP header three times;
// DecTTL and NAT preserve header validity, so two checks are redundant.
func TestSynthesizeTelcoChainDedup(t *testing.T) {
	g := buildLinear(fwNF("fw"), routerNF("r"), nf.NewNAT("nat", 0x01020304))
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 2 {
		t.Fatalf("Removed = %v, want 2 duplicate header checks", rep.Removed)
	}
}

// Payload writers block payload-reading dedup: two identical IDS scans with
// a proxy in between must both stay.
func TestSynthesizePayloadWriteBlocksDedup(t *testing.T) {
	ids1 := nf.NewIDS("ids", []string{"attack"}, false)
	ids2 := nf.NewIDS("ids", []string{"attack"}, false)
	proxy := nf.NewProxy("px", []byte("Z"))
	g := buildLinear(ids1, proxy, ids2)
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rep.Removed {
		if bytes.Contains([]byte(name), []byte("/ac")) {
			t.Errorf("payload scanner %s removed across a payload writer", name)
		}
	}
}

// Identical IDS scans with nothing but classifiers between them dedup.
func TestSynthesizeIdenticalScansDedup(t *testing.T) {
	ids1 := nf.NewIDS("ids", []string{"attack"}, false)
	ids2 := nf.NewIDS("ids", []string{"attack"}, false)
	g := buildLinear(ids1, ids2)
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate chk and duplicate scanner both removable.
	if len(rep.Removed) != 2 {
		t.Errorf("Removed = %v, want chk+scan", rep.Removed)
	}
}

// Synthesis must not change functional behaviour.
func TestSynthesizePreservesSemantics(t *testing.T) {
	run := func(synth bool) []*netpkt.Batch {
		chain := []*nf.NF{fwNF("fw"), routerNF("r"), nf.NewNAT("nat", 0x01020304)}
		g := element.NewGraph()
		src := g.Add(element.NewFromDevice("src"))
		seg := buildLinear(chain...)
		if synth {
			if _, err := Synthesize(seg); err != nil {
				t.Fatal(err)
			}
		}
		seq, err := linearSequence(seg)
		if err != nil {
			t.Fatal(err)
		}
		off := g.Import(seg)
		dst := g.Add(element.NewToDevice("dst"))
		g.MustConnect(src, 0, seq[0]+off)
		g.MustConnect(seq[len(seq)-1]+off, 0, dst)

		x, err := element.NewExecutor(g)
		if err != nil {
			t.Fatal(err)
		}
		var outs []*netpkt.Batch
		for _, b := range trafficBatches(4, 16) {
			o, err := x.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o[dst]...)
		}
		return outs
	}
	plain := run(false)
	synth := run(true)
	if len(plain) != len(synth) {
		t.Fatalf("batch counts differ: %d vs %d", len(plain), len(synth))
	}
	for i := range plain {
		if plain[i].Live() != synth[i].Live() {
			t.Fatalf("batch %d live: %d vs %d", i, plain[i].Live(), synth[i].Live())
		}
		for j := range plain[i].Packets {
			a, b := plain[i].Packets[j], synth[i].Packets[j]
			if a.Dropped != b.Dropped {
				t.Fatalf("batch %d pkt %d drop mismatch", i, j)
			}
			if !a.Dropped && !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("batch %d pkt %d bytes differ", i, j)
			}
		}
	}
}

// Drop hoisting: a drop-capable classifier moves ahead of read-only
// classifiers in its run.
func TestSynthesizeDropHoisting(t *testing.T) {
	g := element.NewGraph()
	cnt := g.Add(element.NewCounter("cnt"))      // classifier, no drop
	chk := g.Add(element.NewCheckIPHeader("ck")) // classifier, drops
	g.MustConnect(cnt, 0, chk)
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hoisted) == 0 {
		t.Fatal("nothing hoisted")
	}
	seq, err := linearSequence(g)
	if err != nil {
		t.Fatal(err)
	}
	if g.Node(seq[0]).Name() != "ck" {
		t.Errorf("order after hoist: %s first", g.Node(seq[0]).Name())
	}
}

// Classifiers must not move across modifiers: a dropper after a modifier
// stays after it.
func TestSynthesizeNoHoistAcrossModifier(t *testing.T) {
	g := element.NewGraph()
	cnt := g.Add(element.NewCounter("cnt"))
	ttl := g.Add(element.NewDecTTL("ttl")) // modifier boundary
	chk := g.Add(element.NewCheckIPHeader("ck"))
	g.MustConnect(cnt, 0, ttl)
	g.MustConnect(ttl, 0, chk)
	if _, err := Synthesize(g); err != nil {
		t.Fatal(err)
	}
	seq, _ := linearSequence(g)
	names := []string{}
	for _, id := range seq {
		names = append(names, g.Node(id).Name())
	}
	if names[0] != "cnt" || names[1] != "ttl" || names[2] != "ck" {
		t.Errorf("order changed across modifier: %v", names)
	}
}

// Dead pure overwrites: two MAC rewrites with no header reader between.
func TestSynthesizeDeadWriteElimination(t *testing.T) {
	g := element.NewGraph()
	e1 := g.Add(element.NewEtherEncap("mac1", netpkt.MAC{1}, netpkt.MAC{2}))
	pr := g.Add(element.NewPaint("paint", 3)) // does not read the header
	e2 := g.Add(element.NewEtherEncap("mac2", netpkt.MAC{4}, netpkt.MAC{5}))
	g.MustConnect(e1, 0, pr)
	g.MustConnect(pr, 0, e2)
	rep, err := Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DeadWrites) != 1 || rep.DeadWrites[0] != "mac1" {
		t.Errorf("DeadWrites = %v", rep.DeadWrites)
	}
}

func TestSynthesizeRejectsNonLinear(t *testing.T) {
	g := element.NewGraph()
	a := g.Add(element.NewFromDevice("a"))
	tee := g.Add(element.NewTee("t", 2))
	b := g.Add(element.NewToDevice("b"))
	c := g.Add(element.NewToDevice("c"))
	g.MustConnect(a, 0, tee)
	g.MustConnect(tee, 0, b)
	g.MustConnect(tee, 1, c)
	if _, err := Synthesize(g); err == nil {
		t.Error("branching graph accepted")
	}
}
