package control

import (
	"context"
	"hash/fnv"
	"strings"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

func twoTenantSpecs() []spec.ChainSpec {
	// Both chains open with the spec-built IPv4 router (identical default
	// table → identical signatures), then diverge. The synthesized
	// first segments are:
	//   alpha: chk, rt, ttl, mac, acl  (ipv4 + firewall; dup chk removed)
	//   beta:  chk, rt, ttl, mac, ac   (ipv4 + ids;      dup chk removed)
	// The shareable common prefix is [chk, rt]: DecTTL writes the header,
	// so sharing stops there even though ttl/mac are also common.
	return []spec.ChainSpec{
		{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"},
		{Name: "beta", Revision: 1, Chain: "ipv4,ids"},
	}
}

func compose(t *testing.T, specs []spec.ChainSpec) *Composition {
	t.Helper()
	c, err := Compose(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sharedPrefix returns the signatures of the nodes between the source and
// the demux: the work that runs once for every tenant.
func sharedPrefix(c *Composition) []string {
	var sigs []string
	for id := c.Graph.Sources()[0]; ; {
		id = c.Graph.Successors(id)[0][0]
		el := c.Graph.Node(id)
		if el.Traits().Kind == "TenantDemux" {
			return sigs
		}
		sigs = append(sigs, el.Signature())
	}
}

func TestComposeSharedPrefix(t *testing.T) {
	c := compose(t, twoTenantSpecs())
	shared := sharedPrefix(c)
	if len(shared) != 2 {
		t.Fatalf("shared prefix = %v, want the router's [chk, rt]", shared)
	}
	if shared[0] != "CheckIPHeader" || !strings.HasPrefix(shared[1], "IPLookup/") {
		t.Errorf("shared prefix signatures = %v", shared)
	}
	if c.Tags["alpha"] != 1 || c.Tags["beta"] != 2 {
		t.Errorf("tags = %v, want name-sorted 1-based tags", c.Tags)
	}

	// Replicas must be structurally identical (the sharding contract).
	g0, err := c.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := c.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if g0.Len() != g1.Len() || g0.Len() != c.Graph.Len() {
		t.Fatalf("replica node counts differ: %d vs %d vs %d", g0.Len(), g1.Len(), c.Graph.Len())
	}
	for i := 0; i < g0.Len(); i++ {
		id := element.NodeID(i)
		want := g0.Node(id).Signature()
		if got := g1.Node(id).Signature(); got != want {
			t.Errorf("node %d signature %q vs %q across replicas", i, want, got)
		}
	}

	// Tenant labels cover per-tenant nodes only; the shared prefix, source
	// and demux carry none.
	labels := map[string]int{}
	for _, name := range c.Tenants {
		labels[name]++
	}
	if labels["alpha"] != 4 || labels["beta"] != 4 {
		// Each tenant: ttl, mac, its tail element, and its sink.
		t.Errorf("tenant label counts = %v", labels)
	}
}

func TestComposeSingleTenantKeepsChainPrivate(t *testing.T) {
	c := compose(t, twoTenantSpecs()[:1])
	if shared := sharedPrefix(c); len(shared) != 0 {
		t.Errorf("single tenant got a shared prefix: %v", shared)
	}
}

func TestComposeRejectsBadSpecs(t *testing.T) {
	if _, err := Compose(nil, nil); err == nil {
		t.Error("empty spec set accepted")
	}
	dup := []spec.ChainSpec{
		{Name: "a", Revision: 1, Chain: "ipv4"},
		{Name: "a", Revision: 2, Chain: "nat"},
	}
	if _, err := Compose(dup, nil); err == nil {
		t.Error("duplicate chain names accepted")
	}
	bad := []spec.ChainSpec{{Name: "a", Revision: 1, Chain: "bogus"}}
	if _, err := Compose(bad, nil); err == nil {
		t.Error("unknown NF accepted")
	}
}

// feed generates one tenant's deterministic batch stream, tagged tag:
// batches alternate random and pattern-bearing payloads, every 7th packet
// carries a bad IPv4 checksum and every 11th a TTL of 1, so the chains'
// drop verdicts are exercised, the shared CheckIPHeader's included.
func feed(tag uint16, batches, n int) []*netpkt.Batch {
	random := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: int64(tag) * 31})
	match := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(128), Seed: int64(tag) * 37,
		Payload: traffic.PayloadFullMatch, MatchTokens: spec.DefaultPatterns})
	var bs []*netpkt.Batch
	k := 0
	for i := 0; i < batches; i++ {
		g := random
		if i%2 == 1 {
			g = match
		}
		b := g.Batches(1, n)[0]
		for _, p := range b.Packets {
			p.Tenant = tag
			h := p.L3()
			k++
			switch {
			case h == nil:
			case k%7 == 0:
				h[10] ^= 0xff
			case k%11 == 0:
				old := uint16(h[8])<<8 | uint16(h[9])
				h[8] = 1
				sum := netpkt.ChecksumUpdate16(uint16(h[10])<<8|uint16(h[11]), old, uint16(h[8])<<8|uint16(h[9]))
				h[10], h[11] = byte(sum>>8), byte(sum)
			}
		}
		bs = append(bs, b)
	}
	return bs
}

// digest reduces a packet to a comparable fingerprint: wire bytes, flow,
// and verdict.
func digest(p *netpkt.Packet) uint64 {
	h := fnv.New64a()
	h.Write(p.Data)
	var k [9]byte
	k[0] = byte(p.FlowID)
	k[1] = byte(p.FlowID >> 8)
	if p.Dropped {
		k[8] = 1
	}
	h.Write(k[:])
	return h.Sum64()
}

// outputs is one tenant's output packets: digest multiset and drop count.
type outputs struct {
	digests map[uint64]int
	dropped int
}

func (o *outputs) add(p *netpkt.Packet) {
	if o.digests == nil {
		o.digests = map[uint64]int{}
	}
	o.digests[digest(p)]++
	if p.Dropped {
		o.dropped++
	}
}

// runComposition executes c on a 2-shard dataplane under its placement and
// returns each tenant's outputs, keyed by tag.
func runComposition(t *testing.T, c *Composition, feeds map[uint16][]*netpkt.Batch) map[uint16]*outputs {
	t.Helper()
	// Interleave the tenants' batches with globally unique IDs.
	var all []*netpkt.Batch
	for _, s := range c.Specs {
		all = append(all, feeds[c.Tags[s.Name]]...)
	}
	for i, b := range all {
		b.ID = uint64(i + 1)
	}
	sp, err := dataplane.NewSharded(c.Build, dataplane.ShardedConfig{
		Config: dataplane.Config{Metrics: true, QueueDepth: 64, Tenants: c.Tenants, Assignment: c.Assignment},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	got := map[uint16]*outputs{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := range sp.Out() {
			for _, p := range b.Packets {
				if got[p.Tenant] == nil {
					got[p.Tenant] = &outputs{}
				}
				got[p.Tenant].add(p)
			}
		}
	}()
	nic := ingress.NewNIC(sp.NumShards())
	for _, b := range all {
		if !nic.Steer(ctx, sp, b) {
			t.Fatal("Steer refused a batch on a live pipeline")
		}
	}
	sp.CloseInput()
	<-drained
	if err := sp.Wait(); err != nil {
		t.Fatal(err)
	}
	return got
}

// runOracle runs a tenant's stream through its chain as written — parsed
// from the spec, built by nf.BuildChain, not synthesized — on one
// element.Executor.
func runOracle(t *testing.T, s spec.ChainSpec, in []*netpkt.Batch) *outputs {
	t.Helper()
	chain, err := spec.Parse(s.Chain, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, _, _ := nf.BuildChain(chain)
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	o := &outputs{}
	for _, b := range in {
		out, err := x.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range out {
			for _, ob := range bs {
				for _, p := range ob.Packets {
					o.add(p)
				}
			}
		}
	}
	return o
}

// TestComposeDifferentialMultiset is the composition's soundness check:
// every tenant's packets through the composed, shared-prefix, synthesized
// and placed deployment must come out exactly as they do from the tenant's
// chain as written on an element.Executor — the same output multiset and
// the same verdicts. Flow→shard affinity and per-tenant chains are
// deterministic, so the comparison is exact.
func TestComposeDifferentialMultiset(t *testing.T) {
	const batches, n = 12, 32
	for _, c := range []struct {
		name    string
		specs   []spec.ChainSpec
		offload bool
	}{
		{"shared-prefix", twoTenantSpecs(), false},
		{"one-offloaded", []spec.ChainSpec{
			twoTenantSpecs()[0],
			{Name: "heavy", Revision: 1, Chain: "ipv4,dpi", Offload: true, PktSize: 512},
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			comp := compose(t, c.specs)
			if off := offCPU(comp); c.offload && off == 0 {
				t.Fatal("no element placed off-CPU: the row does not exercise the emulated backend")
			}
			feeds := map[uint16][]*netpkt.Batch{}
			for _, s := range comp.Specs {
				tag := comp.Tags[s.Name]
				feeds[tag] = feed(tag, batches, n)
			}
			got := runComposition(t, comp, feeds)
			for _, s := range comp.Specs {
				tag := comp.Tags[s.Name]
				want := runOracle(t, s, feed(tag, batches, n))
				g := got[tag]
				if g == nil {
					t.Fatalf("tenant %s: no output from the composition", s.Name)
				}
				if want.dropped == 0 || want.dropped == batches*n {
					t.Fatalf("tenant %s: oracle dropped %d of %d packets; want some of each verdict",
						s.Name, want.dropped, batches*n)
				}
				if g.dropped != want.dropped {
					t.Errorf("tenant %s: %d dropped, oracle %d", s.Name, g.dropped, want.dropped)
				}
				if len(g.digests) != len(want.digests) {
					t.Fatalf("tenant %s: %d distinct digests composed vs %d oracle",
						s.Name, len(g.digests), len(want.digests))
				}
				for d, cnt := range want.digests {
					if g.digests[d] != cnt {
						t.Fatalf("tenant %s: digest %x count %d composed vs %d oracle",
							s.Name, d, g.digests[d], cnt)
					}
				}
			}
		})
	}
}

// offCPU counts the composition's elements placed off the CPU.
func offCPU(c *Composition) int {
	n := 0
	for _, pl := range c.Assignment {
		if pl.Mode != hetsim.ModeCPU {
			n++
		}
	}
	return n
}
