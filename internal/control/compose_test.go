package control

import (
	"context"
	"hash/fnv"
	"strings"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/element"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

func twoTenantSpecs() []spec.ChainSpec {
	// Both chains open with the spec-built IPv4 router (identical default
	// table → identical signatures), then diverge. The synthesized
	// fragments are:
	//   alpha: chk, rt, ttl, mac, acl  (ipv4 + firewall; dup chk removed)
	//   beta:  chk, rt, ttl, mac, ac   (ipv4 + ids;      dup chk removed)
	// The mergeable common prefix is [chk, rt]: DecTTL writes the header,
	// so the merge stops there even though ttl/mac are also common.
	return []spec.ChainSpec{
		{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"},
		{Name: "beta", Revision: 1, Chain: "ipv4,ids"},
	}
}

func TestComposeSharedPrefix(t *testing.T) {
	c, err := Compose(twoTenantSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shared) != 2 {
		t.Fatalf("shared prefix = %v, want the router's [chk, rt]", c.Shared)
	}
	if c.Shared[0] != "CheckIPHeader" || !strings.HasPrefix(c.Shared[1], "IPLookup/") {
		t.Errorf("shared prefix signatures = %v", c.Shared)
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
	if g0.Len() != g1.Len() {
		t.Fatalf("replica node counts differ: %d vs %d", g0.Len(), g1.Len())
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
	c, err := Compose(twoTenantSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Shared) != 0 {
		t.Errorf("single tenant got a shared prefix: %v", c.Shared)
	}
}

func TestComposeRejectsBadSpecs(t *testing.T) {
	if _, err := Compose(nil); err == nil {
		t.Error("empty spec set accepted")
	}
	dup := []spec.ChainSpec{
		{Name: "a", Revision: 1, Chain: "ipv4"},
		{Name: "a", Revision: 2, Chain: "nat"},
	}
	if _, err := Compose(dup); err == nil {
		t.Error("duplicate chain names accepted")
	}
	bad := []spec.ChainSpec{{Name: "a", Revision: 1, Chain: "bogus"}}
	if _, err := Compose(bad); err == nil {
		t.Error("unknown NF accepted")
	}
}

// tenantTraffic generates one tenant's deterministic batch stream: the wire
// bytes are seeded by seedTag (identical across runs) while the Tenant
// annotation carries wireTag — the composed run uses the tenant's shared
// tag, an isolated run re-tags the same stream to its single-tenant tag.
func tenantTraffic(seedTag, wireTag uint16, batches, n int) []*netpkt.Batch {
	g := traffic.NewGenerator(traffic.Config{
		Size: traffic.Fixed(128),
		Seed: int64(seedTag) * 31,
	})
	bs := g.Batches(batches, n)
	for _, b := range bs {
		for _, p := range b.Packets {
			p.Tenant = wireTag
		}
	}
	return bs
}

// digest reduces a packet to a comparable fingerprint: wire bytes, flow,
// and drop state.
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

// runComposition executes a spec set on a 2-shard dataplane and returns
// each tenant's output packet multiset, keyed by tag.
func runComposition(t *testing.T, specs []spec.ChainSpec, feeds map[uint16][]*netpkt.Batch) map[uint16]map[uint64]int {
	t.Helper()
	c, err := Compose(specs)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the tenants' batches with globally unique IDs.
	var all []*netpkt.Batch
	for _, s := range c.Specs {
		all = append(all, feeds[c.Tags[s.Name]]...)
	}
	for i, b := range all {
		b.ID = uint64(i + 1)
	}
	sp, err := dataplane.NewSharded(c.Build, dataplane.ShardedConfig{
		Config: dataplane.Config{Metrics: true, QueueDepth: 64, Tenants: c.Tenants},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	got := map[uint16]map[uint64]int{}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for b := range sp.Out() {
			for _, p := range b.Packets {
				m := got[p.Tenant]
				if m == nil {
					m = map[uint64]int{}
					got[p.Tenant] = m
				}
				m[digest(p)]++
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

// TestComposeDifferentialMultiset is the de-duplication soundness check:
// two tenants through the shared composition (common [chk, acl] prefix
// merged, run once on the mixed stream) must produce exactly the output
// multiset each tenant gets when deployed alone. Flow→shard affinity and
// per-tenant chains are deterministic, so the comparison is exact.
func TestComposeDifferentialMultiset(t *testing.T) {
	specs := twoTenantSpecs()
	const batches, n = 12, 32

	shared := runComposition(t, specs, map[uint16][]*netpkt.Batch{
		1: tenantTraffic(1, 1, batches, n),
		2: tenantTraffic(2, 2, batches, n),
	})

	for i, s := range specs {
		tag := uint16(i + 1)
		iso := runComposition(t, []spec.ChainSpec{s}, map[uint16][]*netpkt.Batch{
			// A single-tenant composition tags its one chain 1; replay the
			// same wire stream under that tag.
			1: tenantTraffic(tag, 1, batches, n),
		})
		want := iso[1]
		got := shared[tag]
		if len(want) == 0 {
			t.Fatalf("tenant %s: isolated run produced no packets", s.Name)
		}
		if len(got) != len(want) {
			t.Fatalf("tenant %s: %d distinct digests shared vs %d isolated",
				s.Name, len(got), len(want))
		}
		for d, cnt := range want {
			if got[d] != cnt {
				t.Fatalf("tenant %s: digest %x count %d shared vs %d isolated",
					s.Name, d, got[d], cnt)
			}
		}
		total := 0
		for _, cnt := range got {
			total += cnt
		}
		if total != batches*n {
			t.Errorf("tenant %s: %d packets out, want %d", s.Name, total, batches*n)
		}
	}
}
