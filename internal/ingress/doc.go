// Package ingress is the packet I/O plane: pluggable Sources that feed the
// dataplane and Sinks that consume what it emits, plus an emulated
// multi-queue RSS NIC and the replay pump that drives sustained runs.
//
// The paper's testbed receives traffic from two 40 Gbps generator machines
// through multi-queue NICs whose receive-side scaling spreads flows across
// cores. This package reproduces that boundary in software so the rest of
// the framework is exercised the way a deployment would be — packets
// arriving from outside (a capture file, a socket), classified to queues
// by the NIC's hash, and handed to per-core pipeline replicas — instead of
// being pre-batched in memory by the benchmark itself.
//
// # Sources and sinks
//
// A Source yields one packet per Next call and reports end-of-stream with
// io.EOF; a Sink consumes completed batches and owns releasing them.
// Three sources ship:
//
//   - PcapSource replays a classic pcap capture (internal/traffic's
//     streaming reader: both byte orders, microsecond and nanosecond
//     magics, snaplen-truncated records as captured). Optional pacing
//     honours the capture's inter-arrival gaps or a fixed packet rate,
//     and loop mode replays the trace repeatedly for sustained soaks.
//   - UDPSource binds a UDP socket and treats each datagram payload as
//     one Ethernet frame — the counterpart of trafficgen's -udp emitter,
//     and a way to drive the dataplane from another process or machine.
//   - Generator traffic needs no Source: it is already in memory, and
//     NIC.Steer splits each batch by RSS queue and injects the parts where
//     the pump would have put the same packets.
//
// Every source stamps FlowID with traffic.FlowHash so stateful elements
// see per-flow state exactly as generated traffic does.
//
// # The emulated NIC
//
// NIC models the receive side of a multi-queue NIC: a Toeplitz RSS hash
// (rss.go, Microsoft key and known-answer-vector exact) over the flow
// tuple selects a 128-entry indirection slot, which names the receive
// queue. Queue count equals the shard count, and Pump injects every queue's
// batches straight into its own shard (ShardedPipeline.InjectShard) — the
// software analogue of queues raising interrupts on their own cores. A
// caller that passes no NIC gets one per shard count. The pump has one shape
// per input: one reader in front of a one-queue NIC works the queue inline,
// on its own goroutine, with no hash; otherwise readers deal packets by RSS
// queue into SPSC rings and one RX worker goroutine per queue serves them.
// The same mapping steers in-memory batches (NIC.Steer), so they spread
// over the shards exactly as a replay of the same packets would — per-queue
// arrival order included, which order-sensitive NFs like NAT depend on.
//
// # Memory and threads
//
// Each queue owns a netpkt.Arena: packet buffers and batch headers for
// shard k recycle through arena k instead of one global pool, and the
// sink's release routes every object back to the arena it came from
// (netpkt ownership rules). Combined with dataplane.Config.PinOSThread —
// each shard's element goroutines locked to OS threads — a shard keeps
// its buffers, its state, and its execution on the same core the way a
// DPDK lcore does.
//
// # Flow accounting
//
// Each NIC queue tracks its flows in its own flowtable.Table, with no lock
// (RSS gives a flow one queue, one goroutine works a queue) and lazy TTL
// expiry: every batch advances a replay clock from packet timestamps and
// reclaims a bounded number of stale entries, so the soak experiment can
// hold >1M concurrent flows without stop-the-world sweeps. PumpStats
// reports distinct and peak-concurrent flow counts alongside throughput,
// and what became of every tracked flow: still live at exit, expired, or
// evicted at the bound.
package ingress
