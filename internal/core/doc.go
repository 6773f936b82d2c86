// Package core implements NFCompass itself (paper §IV): the SFC
// orchestrator that parallelizes hazard-free NFs (Tables II/III), the
// XOR-based parallel-branch merge (Fig. 10), the NF synthesizer that
// de-duplicates and re-orders Click elements across chained NFs (Figs.
// 10–11), the fine-grained element expansion that exposes offload ratios
// to graph partitioning (Fig. 12), and the graph-partition-based task
// allocator (GTA) that maps the synthesized element graph onto the
// CPU/GPU platform.
//
// A file map, by paper concern:
//
//   - orchestrator.go — hazard classification between consecutive NFs
//     (RAW/WAW/length conflicts) and the parallelization decision.
//   - compass.go — the end-to-end Deploy entry point and its composed
//     form, DeployTenants (tenants' chains behind a TenantDemux, a shared
//     prefix chosen by one predicate, one placement): orchestrate,
//     synthesize, build the deployment graph (deriving per-branch writer
//     flags from NF profiles), profile, allocate, and validate: a plan
//     executes the sample once (hetsim.Execute); its traffic intensities,
//     the allocator's weights and every candidate placement's price come
//     from that trace.
//   - merge.go — Duplicator/XORMerge, the runtime fan-out/fan-in pair of
//     a parallelized stage. Branches that hazard analysis proves
//     read-only receive shallow (shared-bytes) clones; only writer
//     branches pay for deep copies, and only their bytes are XOR-diffed
//     at the merge (see DESIGN.md §8 for the buffer-ownership rules).
//   - synthesize.go — cross-NF element de-duplication and re-ordering.
//   - expand.go — fine-grained element expansion for offload ratios.
//   - allocator.go — the GTA graph-partition allocator.
//   - adapt.go — the Adaptor re-allocation loop driven by observed
//     traffic drift (Deploy's weigh-allocate-and-validate on the
//     observed sample's one trace),
//     plus the interference-aware AIMD batch-size controller fed by the
//     attached runtime's live e2e latency histogram; every re-allocation
//     and batch resize is journaled (journal.go).
//   - describe.go — human-readable deployment rendering.
package core
