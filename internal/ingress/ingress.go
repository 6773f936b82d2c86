package ingress

import (
	"sync/atomic"

	"nfcompass/internal/netpkt"
)

// Source yields packets pulled from outside the process. Next returns
// io.EOF when the source is exhausted (a non-looping capture fully
// replayed, a closed socket); any other error is fatal to the replay.
// Sources are single-consumer: one goroutine calls Next.
type Source interface {
	Next() (*netpkt.Packet, error)
	// Close releases the source's resources. Closing concurrently with
	// Next is allowed and unblocks it (sockets return io.EOF).
	Close() error
}

// SplittableSource is a Source that can fan out into independent parallel
// readers — the source side of the parallel ingress plane. Split returns up
// to n sources that jointly yield what the parent would have yielded,
// partitioned so that no flow ever spans two sub-sources (the partition IS
// the per-flow-order contract: each flow has one reader, so its packets
// stay in source order). A source may return fewer than n readers (or just
// itself) when its semantics don't split that far; callers size their
// reader pool to what comes back. After a successful Split that returns
// new sources the parent must not be read again; Close on the parent stays
// valid and sub-sources are closed individually.
type SplittableSource interface {
	Source
	Split(n int) ([]Source, error)
}

// Sink consumes batches leaving the dataplane. Consume takes ownership of
// the batch: the sink must release it (Batch.Release) or retain it, and
// the caller never touches it again. Sinks are single-consumer by default:
// one goroutine calls Consume. A sink that additionally implements
// ConcurrentSink opts into being called from many drain goroutines at once
// (Pump drains a ShardOut pipeline with one goroutine per shard).
type Sink interface {
	Consume(b *netpkt.Batch) error
	Close() error
}

// ConcurrentSink marks a Sink safe for concurrent Consume calls — the
// parallel egress drain calls such sinks directly from one goroutine per
// shard; everything else is serialized behind a mutex.
type ConcurrentSink interface {
	Sink
	// ConcurrentSafe reports whether Consume may be called concurrently.
	ConcurrentSafe() bool
}

// DiscardSink counts and releases everything — the terminal device of
// throughput runs, where output bytes have already been measured by the
// pipeline and only recycling matters.
type DiscardSink struct {
	Packets atomic.Uint64
	Bytes   atomic.Uint64
}

// Consume implements Sink.
func (d *DiscardSink) Consume(b *netpkt.Batch) error {
	d.Packets.Add(uint64(b.Live()))
	d.Bytes.Add(uint64(b.Bytes()))
	b.Release()
	return nil
}

// ConcurrentSafe implements ConcurrentSink: the counters are atomics, so
// per-shard drain goroutines may consume without serialization.
func (d *DiscardSink) ConcurrentSafe() bool { return true }

// Close implements Sink.
func (d *DiscardSink) Close() error { return nil }

// CollectSink retains every live packet's bytes and drop state — the
// differential harness's sink, where outputs are compared as multisets.
// It releases the batches after copying, so pooled replay still recycles.
type CollectSink struct {
	// Outputs holds one key per packet: the wire bytes of live packets,
	// or "drop:"+reason for dropped ones.
	Outputs []string
}

// Consume implements Sink.
func (c *CollectSink) Consume(b *netpkt.Batch) error {
	for _, p := range b.Packets {
		if p == nil {
			continue
		}
		if p.Dropped {
			c.Outputs = append(c.Outputs, "drop:"+p.DropReason)
		} else {
			c.Outputs = append(c.Outputs, string(p.Data))
		}
	}
	b.Release()
	return nil
}

// Close implements Sink.
func (c *CollectSink) Close() error { return nil }
