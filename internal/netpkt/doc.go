// Package netpkt provides the packet model used throughout NFCompass:
// raw packet buffers, Ethernet/IPv4/IPv6/UDP/TCP header parsing and
// construction, Internet checksums, packet batches, the ordered-release
// completion queue used to preserve packet order across parallel
// (GPU-offloaded) processing, and the pooled packet/batch arena that makes
// the dataplane's steady-state hot path allocation-free.
//
// A Packet is a mutable byte buffer plus the metadata annotations that Click
// style elements attach to packets as they traverse an element graph: the
// paint annotation written by the Paint and load-balancer elements, a flow
// identifier, the arrival and departure timestamps (in simulated
// nanoseconds), and the parsed L3/L4 offsets. Unless it is shared, a packet
// owns its buffer up to cap(Data); Grow appends into that tailroom in place.
//
// A Batch is the processing granularity: elements consume and emit whole
// batches. An element with several outputs splits a batch into per-port
// parts with Derive; the packets keep SeqInBatch, so a consumer can put a
// split batch back in order.
//
// Three clone flavours cover the duplication needs of SFC parallelization:
// Clone (private heap copy), Batch.ClonePooled (private copy from an
// arena's free stacks, returned with Release/PutPacket), and ShallowClone
// (a pooled header with private annotations and shared wire bytes — for
// branches that hazard analysis proves read-only). The arena's rules — one
// Put per Get, double release panics, shared buffers are never recycled
// until Unshare, release by run under one lock, an exact Outstanding
// ledger, heap-built objects left to the GC — are spelled out in pool.go
// and DESIGN.md §8.
//
// Packet.FlowKey is a packet's flow-affinity key: the emulated RSS NIC
// (internal/ingress) hashes it for frames without an IP flow tuple, so each
// flow's packets stay on one shard, preserving stateful-NF per-flow
// locality.
package netpkt
