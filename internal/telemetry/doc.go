// Package telemetry is the live observability plane for a running NFCompass
// pipeline: an embeddable admin HTTP server that scrapes periodic Report
// snapshots from the dataplane and serves them without touching the packet
// hot path.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (format 0.0.4), including the
//	               end-to-end inject→release latency summary
//	               nfc_e2e_latency_ns{quantile="0.5|0.95|0.99|0.999"}.
//	/snapshot      the full dataplane.Report as JSON (fresh per request).
//	/healthz       liveness + backpressure: 200 while the pipeline runs, 503
//	               once it drains; body reports the fullest inbox fill ratio.
//	/spans         the flight recorder's batch spans as NDJSON (?n= tail
//	               limit).
//	/trace.chrome  the same spans as Chrome trace_event JSON (Perfetto).
//	/bottleneck    the flight sampler's bottleneck report.
//	/decisions     the adaptor's DecisionJournal — every Observe outcome with
//	               predicted vs. measured cost and the resulting epoch.
//	/debug/pprof/  the standard Go profiling endpoints.
//
// The server reads only snapshot copies and journal copies, so scraping at
// any rate never perturbs packet processing beyond the snapshot cost itself.
// Typical wiring (see cmd/nfcompass -serve):
//
//	srv, _ := telemetry.New(telemetry.Config{
//	        Source:  pipeline,
//	        Done:    pipeline.Done(),
//	        Flight:  rec,
//	        Journal: adaptor.Journal(),
//	})
//	addr, _ := srv.Start(":9090")
//	defer srv.Shutdown(context.Background())
package telemetry
