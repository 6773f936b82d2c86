package element

import (
	"fmt"

	"nfcompass/internal/netpkt"
)

// TenantDemux steers packets to per-tenant output ports by their Tenant
// annotation — the fan-out point of a shared multi-tenant dataplane. Port i
// serves tags[i]; packets carrying a tag no port owns are dropped (they can
// only appear during a control-plane generation swap, when a chain was just
// removed). The demux reads nothing from the wire bytes, so it never
// constrains the synthesizer's reordering of the chains behind it.
type TenantDemux struct {
	name string
	tags []uint16
	port map[uint16]int
	// Unknown counts packets dropped for carrying an unowned tag.
	Unknown uint64
}

// NewTenantDemux builds a demux with one output port per tag, in order.
func NewTenantDemux(name string, tags []uint16) *TenantDemux {
	port := make(map[uint16]int, len(tags))
	for i, tg := range tags {
		port[tg] = i
	}
	return &TenantDemux{name: name, tags: append([]uint16(nil), tags...), port: port}
}

// Name implements Element.
func (e *TenantDemux) Name() string { return e.name }

// Traits implements Element. The demux is a pure annotation classifier: it
// reads no packet bytes and only splits batches.
func (e *TenantDemux) Traits() Traits {
	return Traits{Kind: "TenantDemux", Class: ClassClassifier, CanDrop: true}
}

// NumOutputs implements Element.
func (e *TenantDemux) NumOutputs() int { return len(e.tags) }

// Signature implements Element.
func (e *TenantDemux) Signature() string {
	return fmt.Sprintf("TenantDemux/%v", e.tags)
}

// Process implements Element: the batch splits per owning tenant.
// Already-dropped packets stay in their owning tenant's batch (drop
// accounting downstream remains per-tenant); packets whose tag no port
// owns are dropped and consumed here.
func (e *TenantDemux) Process(b *netpkt.Batch) []*netpkt.Batch {
	out := make([]*netpkt.Batch, len(e.tags))
	for _, p := range b.Packets {
		port, ok := e.port[p.Tenant]
		if !ok {
			if !p.Dropped {
				p.Drop(e.name)
				e.Unknown++
			}
			continue
		}
		if out[port] == nil {
			out[port] = b.Derive(nil)
		}
		out[port].Packets = append(out[port].Packets, p)
	}
	return out
}

// Reset implements Resetter.
func (e *TenantDemux) Reset() { e.Unknown = 0 }
