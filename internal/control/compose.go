package control

import (
	"fmt"
	"sort"

	"nfcompass/internal/core"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
	"nfcompass/internal/traffic"
)

// Composition is a set of tenant chain specs deployed as one core
// deployment: one graph, one placement. Its Build (the deployment's) is the
// per-shard replica factory dataplane.NewSharded wants, and its Tenants
// label the per-tenant nodes for dataplane.Config.Tenants.
type Composition struct {
	// Specs are the composed chains, sorted by name. The sort makes tag
	// assignment and graph layout independent of submission order.
	Specs []spec.ChainSpec
	// Tags maps each tenant name to the Packet.Tenant tag its traffic must
	// carry (1-based; 0 stays "untagged").
	Tags map[string]uint16
	*core.Deployment
}

// sampleBatches is how many batches of each tenant's traffic the
// composition's deployment samples.
const sampleBatches = 8

// Compose deploys the specs as one composition on the default platform
// (core.DeployTenants), sampling every tenant's own traffic. A spec whose
// chain is in built (by name) deploys that chain; every other spec is built
// here, once.
// The per-spec knobs are settled for the whole composition: GTA runs when
// any spec sets Offload, synthesis is off when any spec opts out, and
// parallelization stays off. Chain names must be unique; at least one spec
// is required.
func Compose(specs []spec.ChainSpec, built map[string][]*nf.NF) (*Composition, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("control: no chains to compose")
	}
	sorted := append([]spec.ChainSpec(nil), specs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	c := &Composition{Specs: sorted, Tags: make(map[string]uint16, len(sorted))}
	opt := core.Options{Synthesize: true, Algorithm: core.AlgoMultilevel}
	tenants := make([]core.Tenant, len(sorted))
	var sample []*netpkt.Batch
	for i, s := range sorted {
		if i > 0 && s.Name == sorted[i-1].Name {
			return nil, fmt.Errorf("control: duplicate chain %q", s.Name)
		}
		chain, ok := built[s.Name]
		if !ok {
			var err error
			if chain, err = s.Build(); err != nil {
				return nil, err
			}
		}
		tag := uint16(i + 1)
		c.Tags[s.Name] = tag
		tenants[i] = core.Tenant{Name: s.Name, Tag: tag, Chain: chain}
		opt.GTA = opt.GTA || s.Offload
		opt.Synthesize = opt.Synthesize && s.WantSynthesize()
		opt.BatchSize = max(opt.BatchSize, s.EffectiveBatchSize())
		sample = append(sample, tenantTraffic(s, tag, sampleBatches)...)
	}
	d, err := core.DeployTenants(tenants, hetsim.DefaultPlatform(), sample, opt)
	if err != nil {
		return nil, fmt.Errorf("control: deploy: %w", err)
	}
	c.Deployment = d
	return c, nil
}

// tenantTraffic is n batches of the spec-shaped synthetic traffic of the
// tenant tagged tag: what the pump injects each tick and what Compose
// samples.
func tenantTraffic(s spec.ChainSpec, tag uint16, n int) []*netpkt.Batch {
	size := traffic.SizeDist(traffic.IMIX{})
	if s.PktSize > 0 {
		size = traffic.Fixed(s.PktSize)
	}
	bs := traffic.NewGenerator(traffic.Config{
		Size: size,
		// Distinct per-tenant seeds keep the tenants' flow populations
		// from being byte-identical clones of each other.
		Seed: s.Seed + int64(tag)<<8 + 1,
	}).Batches(n, s.EffectiveBatchSize())
	for _, b := range bs {
		for _, p := range b.Packets {
			p.Tenant = tag
		}
	}
	return bs
}
