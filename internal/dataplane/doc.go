// Package dataplane executes element graphs as a real concurrent
// pipeline: every element runs on its own goroutine, batches flow through
// channels along the graph's edges, and an ordered-release completion
// queue restores batch order at the sink — the runtime shape of the
// paper's Figure 3 (I/O threads feeding processing elements feeding
// offload threads), with goroutines standing in for pinned cores.
//
// The platform *simulator* (internal/hetsim) answers "how fast would this
// run on the paper's CPU+GPU server"; the dataplane answers "run it now,
// concurrently, on this machine" — it is the deployment artifact a user
// of the library would actually operate.
//
// # Execution engines
//
// Three engines run the same element graphs with the same semantics:
//
//   - element.Executor (internal/element): sequential, one batch at a
//     time — the reference implementation the differential tests compare
//     everything against.
//   - Pipeline: one goroutine per element, scaling with the number of
//     *stages*. Config.PreserveOrder re-sequences output batches in
//     injection order.
//   - ShardedPipeline (sharded.go): N replicas of the graph, one per
//     receive queue, additionally scaling with the number of *cores*.
//     Batches enter only through InjectShard, steered by flow (the
//     ingress NIC's RSS queues), so every flow sees exactly one replica,
//     in order, and stateful NFs keep their per-flow semantics; order
//     across flows is not kept. See DESIGN.md §8.
//
// # Hot path and memory pooling
//
// With metrics off, the per-batch steady state allocates nothing: batches
// travel between stages as by-value stageMsgs, one-output elements
// implementing element.SingleOut bypass the output-slice allocation, and
// arena-backed batches (Arena.GetBatch, Batch.ClonePooled) are recycled with an
// explicit Release at the sink. TestPooledHotPathAllocs guards the
// 0 allocs/op property in CI; BenchmarkPipelineHotPath measures it.
//
// # Compiled stage-loops
//
// Unless Config.DisableCompile is set, maximal sole-path runs of
// same-placement CPU elements execute as one compiled stage-loop
// (compile.go): the run's head receives a batch, chains every member's
// Process call inline, and sends once to the tail's successors — the CPU
// dual of the GPU segment fusion in offload.go, removing the per-element
// goroutine+channel hop. Whoever runs a segment books it: with metrics on,
// the head's goroutine records every executed member's counters and — for
// an observed batch — timing and flight span, so per-element accounting
// matches interpreted execution without the members seeing the batch. Members keep their goroutines for
// placement-swap stragglers and to answer the epoch fence that orders a
// new segment behind them.
// FuzzCompiledVsInterpreted and the TestCompiled* differential suite gate
// the equivalence, TestBookedReportEquality the accounting;
// TestCompiledHotPathAllocs keeps the loop at 0 allocs/op with
// observability off and on. See DESIGN.md §12.
//
// # Observability
//
// With Config.Metrics on, the pipeline keeps a per-element registry
// (packets, drops, processing-time histogram, queue depth, send-wait) and
// per-edge traffic counters, snapshotted live via Pipeline.Snapshot. One
// observation rule (flight.Observed, one batch ID in 16) decides what reads
// a clock: counters are exact on every batch; processing
// time, send-wait, flight spans and busy time come from the observed
// batches — the same ones in compiled, interpreted and fused execution —
// and read as estimates. The inject→release latency histogram stays exact
// (rollout guards read short windows of it) and is kept once per batch, by
// the pipeline it runs in. A sharded replica is booked at its own boundary
// only, and ShardedPipeline.Snapshot aggregates the replicas' reports into
// the same Report shape (AggregateReports). The one batch trace is the
// flight recorder's (Config.Flight): a release span per observed batch and,
// with Metrics on, a span per element it visits, served by the telemetry
// plane's /spans and /trace.chrome.
package dataplane
