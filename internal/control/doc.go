// Package control is the multi-tenant control plane: it turns named,
// versioned chain specs (spec.ChainSpec) into one shared sharded dataplane
// and takes every submitted revision through a staged rollout.
//
// Two pieces:
//
//   - The composer (Compose) builds every tenant's spec once (the
//     submitted one arrives built by Manager.Submit) and deploys
//     the set as one core deployment (core.DeployTenants): one graph — a
//     prefix shared by every tenant (the CoCo-style cross-chain
//     consolidation, chosen by core's one share-safety predicate), a
//     TenantDemux fan-out keyed on Packet.Tenant, and each tenant's plan
//     ending in its own sink — and one placement over all of it. Its
//     Build is the deployment's, the per-shard build callback of
//     dataplane.NewSharded.
//
//   - The coordinator (Manager) owns the chain lifecycle: each revision
//     moves Validating → Profiling → Allocating → Canary → Live, with a
//     canary replica watching the e2e p99 latency ring against the spec's
//     SLO for a guard window and rolling back automatically on regression.
//     Every transition lands in a core.DecisionJournal, so rollouts are
//     auditable through the same /decisions surface as placement swaps.
//
// The package sits above internal/core and internal/dataplane and below
// internal/telemetry (which serves its /chains endpoints) — it never
// imports the serving layer.
package control
