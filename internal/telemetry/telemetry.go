package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"nfcompass/internal/control"
	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
)

// Snapshotter is the pipeline surface the server scrapes; both
// dataplane.Pipeline and dataplane.ShardedPipeline implement it.
type Snapshotter interface {
	Snapshot() *dataplane.Report
}

// Config wires a running pipeline into the admin server. Only Source is
// required; endpoints whose input is absent serve empty collections rather
// than erroring, so one dashboard works against any configuration.
type Config struct {
	// Source is the running pipeline (plain or sharded) to snapshot.
	Source Snapshotter
	// Done, when non-nil, signals pipeline termination: /healthz turns 503
	// once it closes. Use Pipeline.Done() / ShardedPipeline.Done().
	Done <-chan struct{}
	// Journal, when non-nil, is the adaptor's decision journal served at
	// /decisions.
	Journal *core.DecisionJournal
	// Interval is the periodic snapshot refresh period backing /metrics and
	// /healthz (default 1s). /snapshot always takes a fresh snapshot.
	Interval time.Duration
	// Control, when non-nil, is the multi-tenant rollout coordinator; it
	// enables the /chains endpoints (submit, status, rollout watch,
	// rollback).
	Control *control.Manager
	// Flight, when non-nil, is the pipeline flight recorder: its span
	// ring serves /spans (NDJSON) and /trace.chrome (Chrome trace_event
	// JSON, loadable in Perfetto/chrome://tracing), and its stage meters,
	// queue probes, and loss ledger join the /metrics exposition.
	Flight *flight.Recorder
	// Sampler, when non-nil, is the flight recorder's occupancy/utilization
	// sampler: it serves the /bottleneck report and adds utilization and
	// queue-fill families to /metrics.
	Sampler *flight.Sampler
}

// Server is an embeddable admin HTTP server for a running pipeline:
//
//	/metrics       Prometheus text exposition (from periodic snapshots)
//	/snapshot      full Report as JSON (fresh snapshot per request)
//	/healthz       liveness + backpressure signal as JSON
//	/trace.chrome  flight spans as Chrome trace_event JSON (Perfetto)
//	/spans         flight spans as NDJSON (?n= limits to the tail)
//	/bottleneck    the sampler's bottleneck report (JSON; ?format=text)
//	/decisions     the adaptor's decision journal as JSON
//	/debug/pprof/  the standard Go profiling endpoints
type Server struct {
	cfg Config
	mux *http.ServeMux
	srv *http.Server
	lis net.Listener

	// cur is the latest periodic snapshot; the refresher goroutine replaces
	// it every Interval while the pipeline runs.
	cur  atomic.Pointer[dataplane.Report]
	stop chan struct{}

	// goSamp reads runtime/metrics at refresh cadence; goCur is the cached
	// reading /metrics renders, so scrapes never touch the runtime.
	goSamp *goSampler
	goCur  atomic.Pointer[goHealth]
}

// New validates the configuration and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("telemetry: Config.Source is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), stop: make(chan struct{}), goSamp: newGoSampler()}
	s.cur.Store(cfg.Source.Snapshot())
	gh := s.goSamp.read()
	s.goCur.Store(&gh)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/trace.chrome", s.handleChromeTrace)
	s.mux.HandleFunc("/spans", s.handleSpans)
	s.mux.HandleFunc("/bottleneck", s.handleBottleneck)
	s.mux.HandleFunc("/decisions", s.handleDecisions)
	if cfg.Control != nil {
		s.mux.HandleFunc("GET /chains", s.handleChainsList)
		s.mux.HandleFunc("POST /chains", s.handleChainsSubmit)
		s.mux.HandleFunc("GET /chains/{name}", s.handleChainStatus)
		s.mux.HandleFunc("GET /chains/{name}/rollout", s.handleChainRollout)
		s.mux.HandleFunc("POST /chains/{name}/rollback", s.handleChainRollback)
	}
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// Handler returns the server's routing handler, for embedding into an
// existing http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":9090", "127.0.0.1:0", ...), serves in the
// background, and starts the periodic snapshot refresher. The returned
// address carries the resolved port when addr asked for :0.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(lis)
	go s.refresh()
	return lis.Addr(), nil
}

// Shutdown stops the refresher and gracefully closes the listener.
func (s *Server) Shutdown(ctx context.Context) error {
	close(s.stop)
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// refresh keeps the cached snapshot current while the pipeline runs; after
// the pipeline drains it takes one final snapshot so post-mortem scrapes see
// the complete totals.
func (s *Server) refresh() {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.cur.Store(s.cfg.Source.Snapshot())
			gh := s.goSamp.read()
			s.goCur.Store(&gh)
		case <-s.cfg.Done:
			s.cur.Store(s.cfg.Source.Snapshot())
			gh := s.goSamp.read()
			s.goCur.Store(&gh)
			return
		case <-s.stop:
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cur.Load().WritePrometheus(w)
	s.goCur.Load().writePrometheus(w)
	if s.cfg.Flight != nil {
		s.cfg.Flight.WritePrometheus(w)
	}
	if s.cfg.Sampler != nil {
		s.cfg.Sampler.WritePrometheus(w)
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	rep := s.cfg.Source.Snapshot()
	s.cur.Store(rep)
	writeJSON(w, http.StatusOK, rep)
}

// Health is the /healthz body.
type Health struct {
	// Status is "ok" while the pipeline runs, "stopped" once Done closes.
	Status string `json:"status"`
	// Backpressure is the fullest element inbox as a 0..1 fill ratio — the
	// saturation signal (which element is the bottleneck is in /snapshot's
	// SendWaitNs column).
	Backpressure float64 `json:"backpressure"`
	// InPackets/OutPackets/DropPackets are the pipeline boundary totals at
	// the last periodic snapshot.
	InPackets   uint64 `json:"in_packets"`
	OutPackets  uint64 `json:"out_packets"`
	DropPackets uint64 `json:"drop_packets"`
	// Epoch is the placement epoch, Swaps the number of hot-swaps so far.
	Epoch uint64 `json:"epoch"`
	Swaps uint64 `json:"swaps"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	rep := s.cur.Load()
	h := Health{
		Status:      "ok",
		InPackets:   rep.InPackets,
		OutPackets:  rep.OutPackets,
		DropPackets: rep.DropPackets,
		Epoch:       rep.Offload.Epoch,
		Swaps:       rep.Offload.Swaps,
	}
	for _, e := range rep.Elements {
		if e.QueueCap > 0 {
			if f := float64(e.QueueLen) / float64(e.QueueCap); f > h.Backpressure {
				h.Backpressure = f
			}
		}
	}
	code := http.StatusOK
	select {
	case <-s.cfg.Done:
		h.Status = "stopped"
		code = http.StatusServiceUnavailable
	default:
	}
	writeJSON(w, code, h)
}

// handleChromeTrace exports the flight recorder's span rings as Chrome
// trace_event JSON — load the body in Perfetto or chrome://tracing to see
// every stage of the staged ingress as a track, one batch per slice.
func (s *Server) handleChromeTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.cfg.Flight == nil {
		fmt.Fprint(w, `{"traceEvents":[]}`)
		return
	}
	s.cfg.Flight.WriteChromeTrace(w)
}

// handleSpans streams the flight recorder's retained spans as NDJSON,
// newest last; ?n= limits output to the tail.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.cfg.Flight == nil {
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if q, err := strconv.Atoi(v); err == nil && q > 0 {
			n = q
		}
	}
	s.cfg.Flight.WriteSpans(w, n)
}

// handleBottleneck serves the sampler's current bottleneck report — JSON by
// default, the aligned human-readable table with ?format=text.
func (s *Server) handleBottleneck(w http.ResponseWriter, r *http.Request) {
	rep := &flight.BottleneckReport{}
	if s.cfg.Sampler != nil {
		rep = s.cfg.Sampler.Report()
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, rep.String())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// decisionsBody is the /decisions payload: total ever recorded plus the
// retained tail, oldest first.
type decisionsBody struct {
	Total   uint64          `json:"total"`
	Entries []core.Decision `json:"entries"`
}

func (s *Server) handleDecisions(w http.ResponseWriter, _ *http.Request) {
	body := decisionsBody{
		Total:   s.cfg.Journal.Total(),
		Entries: s.cfg.Journal.Entries(),
	}
	if body.Entries == nil {
		body.Entries = []core.Decision{}
	}
	writeJSON(w, http.StatusOK, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
