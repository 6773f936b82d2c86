package telemetry

import (
	"errors"
	"io"
	"net/http"

	"nfcompass/internal/control"
	"nfcompass/internal/core"
	"nfcompass/internal/spec"
)

// This file is the control plane's REST surface, mounted only when
// Config.Control is set:
//
//	GET  /chains                  every chain's status
//	POST /chains                  submit a ChainSpec revision (JSON body)
//	GET  /chains/{name}           one chain's status
//	GET  /chains/{name}/rollout   status plus the chain's journaled
//	                              rollout decisions — the watch endpoint
//	POST /chains/{name}/rollback  revert to the retained previous revision
//
// Rollouts are asynchronous: POST /chains answers 202 Accepted with the
// admission-time status; poll the rollout endpoint (nfctl wait does) until
// the state turns terminal (Live, RolledBack, Failed).

// errorBody is the JSON shape of every /chains error response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleChainsList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Control.Chains())
}

func (s *Server) handleChainsSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	cs, err := spec.ParseChainSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if err := s.cfg.Control.Submit(cs); err != nil {
		// A spec that does not build is a malformed request; the other
		// admission failures (stale revision, rollout in flight) are
		// conflicts with current state.
		code := http.StatusConflict
		if errors.Is(err, control.ErrInvalidSpec) {
			code = http.StatusBadRequest
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	st, _ := s.cfg.Control.Status(cs.Name)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleChainStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.cfg.Control.Status(r.PathValue("name"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown chain"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// rolloutBody is the watch endpoint's payload: the live status plus every
// journaled decision concerning the chain, oldest first.
type rolloutBody struct {
	Status    control.ChainStatus `json:"status"`
	Decisions []core.Decision     `json:"decisions"`
}

func (s *Server) handleChainRollout(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.cfg.Control.Status(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown chain"})
		return
	}
	body := rolloutBody{Status: st, Decisions: []core.Decision{}}
	for _, d := range s.cfg.Control.Journal().Entries() {
		if d.Chain == name {
			body.Decisions = append(body.Decisions, d)
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleChainRollback(w http.ResponseWriter, r *http.Request) {
	st, err := s.cfg.Control.Rollback(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
