package ingress

import (
	"context"
	"fmt"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/netpkt"
)

// NIC emulates the receive side of a multi-queue RSS NIC: Toeplitz hash
// over the flow tuple, 128-entry indirection table, one receive queue per
// pipeline shard, and one netpkt.Arena per queue so each shard's buffers
// recycle through its own pool. The NIC itself holds no packets — Pump
// does the demultiplexing — it is the classification contract plus the
// per-queue memory domains.
type NIC struct {
	rss    *RSS
	queues int
	arenas []*netpkt.Arena
}

// NewNIC builds a NIC with the given queue count and the default RSS key.
func NewNIC(queues int) *NIC {
	if queues < 1 {
		queues = 1
	}
	n := &NIC{rss: NewRSS(queues), queues: queues, arenas: make([]*netpkt.Arena, queues)}
	for i := range n.arenas {
		n.arenas[i] = netpkt.NewArena()
	}
	return n
}

// Queues reports the queue count.
func (n *NIC) Queues() int { return n.queues }

// QueueBatch classifies a read batch in one call (see RSS.QueueBatch):
// identical mapping to per-packet RSS.Queue, amortized table walk.
func (n *NIC) QueueBatch(pkts []*netpkt.Packet, dst []int) []int {
	return n.rss.QueueBatch(pkts, dst)
}

// Arena returns queue q's buffer pool.
func (n *NIC) Arena(q int) *netpkt.Arena { return n.arenas[q] }

// Steer injects an in-memory batch into sp where the NIC's queues would have
// put the same packets: b is split by RSS queue (QueueBatch), each part keeps
// b's ID and its packets' order (Batch.Derive), and each goes to the shard of
// its queue through InjectShard. A batch whose packets all map to one queue
// goes through under its own header. sp has one shard per queue. Steer owns
// b: when ctx has ended, or an injection is refused, it releases every packet
// it did not inject and returns false.
func (n *NIC) Steer(ctx context.Context, sp *dataplane.ShardedPipeline, b *netpkt.Batch) bool {
	if ctx.Err() != nil {
		b.Release()
		return false
	}
	qs := n.QueueBatch(b.Packets, nil)
	parts := make([][]*netpkt.Packet, n.queues)
	for i, p := range b.Packets {
		parts[qs[i]] = append(parts[qs[i]], p)
	}
	for q, pkts := range parts {
		if len(pkts) == 0 {
			continue
		}
		part := b
		if len(pkts) < len(b.Packets) {
			part = b.Derive(pkts)
		}
		if !sp.InjectShard(ctx, q, part) {
			for _, rest := range parts[q:] {
				for _, p := range rest {
					netpkt.PutPacket(p)
				}
			}
			return false
		}
	}
	return true
}

// String describes the NIC for logs.
func (n *NIC) String() string {
	return fmt.Sprintf("nic(queues=%d, rss=toeplitz/%d)", n.queues, rssIndirection)
}
