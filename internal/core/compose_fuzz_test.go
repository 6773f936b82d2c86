package core

// Fuzz harness for cross-tenant sharing: a composition of two chains runs
// the elements both may share once, ahead of the demux, and each tenant's
// own synthesized remainder behind it. Whatever the composition shares, each
// tenant's packets must come out as they do from its chain built alone.
//
// Invariant checked per tenant: the multiset of verdicts, with each
// surviving packet's bytes, equals that of the tenant's chain as written
// (nf.BuildChain, unsynthesized) on its own share of the traffic. Batch
// boundaries are kept, so stateful elements see the same packets in the
// same order. Dropped packets' bytes are not compared: synthesis and
// sharing may move a drop earlier.

import (
	"fmt"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
)

// tenantOutputs runs in on g and returns the verdict/bytes multiset of the
// packets reaching each sink, keyed by the sink's tenant (name(sink)).
func tenantOutputs(t *testing.T, g *element.Graph, in []*netpkt.Batch,
	name func(element.NodeID) string) map[string]map[string]int {
	x, err := element.NewExecutor(g)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]int{}
	for _, b := range in {
		if len(b.Packets) == 0 {
			continue
		}
		sinkOut, err := x.RunBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for sink, bs := range sinkOut {
			m := out[name(sink)]
			if m == nil {
				m = map[string]int{}
				out[name(sink)] = m
			}
			for _, ob := range bs {
				for _, p := range ob.Packets {
					if p.Dropped {
						m["dropped"]++
					} else {
						m[string(p.Data)]++
					}
				}
			}
		}
	}
	return out
}

func FuzzComposeVsIsolated(f *testing.F) {
	f.Add([]byte{4, 1}, []byte{4, 7}, int64(1))    // ids,ipv4 | ids,nat
	f.Add([]byte{9, 4, 1}, []byte{4, 1}, int64(2)) // probe,ids,ipv4 | ids,ipv4
	f.Add([]byte{1, 0}, []byte{1, 4}, int64(3))    // ipv4,firewall | ipv4,ids
	f.Add([]byte{0, 1, 7}, []byte{0}, int64(4))    // firewall,ipv4,nat | firewall
	f.Add([]byte{3, 4}, []byte{5, 6}, int64(5))    // ipsec,ids | streamids,dpi
	f.Add([]byte{7, 0}, []byte{0}, int64(6))       // nat,firewall | firewall
	f.Add([]byte{8, 1}, []byte{1, 9}, int64(7))    // lb,ipv4 | ipv4,probe
	f.Fuzz(func(t *testing.T, a, b []byte, seed int64) {
		chains := []string{chainFromBytes(a), chainFromBytes(b)}
		if chains[0] == "" || chains[1] == "" {
			t.Skip()
		}
		var tenants []Tenant
		for i, c := range chains {
			nfs, err := spec.Parse(c, seed)
			if err != nil {
				t.Skip("unparseable chain")
			}
			tenants = append(tenants, Tenant{Name: fmt.Sprint("t", i), Tag: uint16(i + 1), Chain: nfs})
		}
		opt := DefaultOptions()
		opt.Parallelize, opt.GTA = false, false
		d, err := DeployTenants(tenants, hetsim.DefaultPlatform(), nil, opt)
		if err != nil {
			t.Fatalf("%q | %q: %v", chains[0], chains[1], err)
		}

		// Tenant i owns every other packet; its isolated run sees the same
		// packets in the same batches.
		tag := func(in []*netpkt.Batch) []*netpkt.Batch {
			for _, b := range in {
				for k, p := range b.Packets {
					p.Tenant = uint16(1 + k%2)
				}
			}
			return in
		}
		got := tenantOutputs(t, d.Graph, tag(fuzzTraffic(seed)),
			func(sink element.NodeID) string { return d.Tenants[sink] })
		for _, tn := range tenants {
			in := tag(fuzzTraffic(seed))
			for _, b := range in {
				own := b.Packets[:0]
				for _, p := range b.Packets {
					if p.Tenant == tn.Tag {
						own = append(own, p)
					}
				}
				b.Packets = own
			}
			nfs, err := spec.Parse(chains[tn.Tag-1], seed)
			if err != nil {
				t.Fatal(err)
			}
			g, _, _ := nf.BuildChain(nfs)
			want := tenantOutputs(t, g, in, func(element.NodeID) string { return tn.Name })[tn.Name]
			if len(got[tn.Name]) != len(want) {
				t.Fatalf("%q | %q: tenant %s: %d distinct outputs composed, %d alone",
					chains[0], chains[1], tn.Name, len(got[tn.Name]), len(want))
			}
			for k, n := range want {
				if got[tn.Name][k] != n {
					t.Fatalf("%q | %q: tenant %s: an output (dropped=%v) %d times composed, %d alone",
						chains[0], chains[1], tn.Name, k == "dropped", got[tn.Name][k], n)
				}
			}
		}
	})
}
