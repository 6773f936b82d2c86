// Package stats provides the measurement primitives the repository
// reports with, in two families:
//
//   - Single-goroutine benchmark tools (stats.go): a throughput meter and
//     latency samples with mean, variance and percentile queries — the
//     metrics of the paper's evaluation (average and variance latency,
//     Gbps throughput).
//   - Concurrency-safe live primitives (concurrent.go): a cache-line padded
//     atomic Counter and ConcurrentHistogram with lock-free Add — what the
//     dataplane records into while packets are in flight. HistSnapshot is
//     the immutable point-in-time copy carried by dataplane reports;
//     HistSnapshot.Merge combines independently recorded distributions
//     (used to aggregate the per-replica histograms of a sharded pipeline).
//
// Prometheus text exposition helpers (prom.go) render either family for
// scraping.
package stats
