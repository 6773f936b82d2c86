package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"nfcompass/internal/control"
	"nfcompass/internal/spec"
)

func chainsServer(t *testing.T) (*httptest.Server, *control.Manager) {
	t.Helper()
	m := control.NewManager(control.Config{
		Shards:       2,
		TickInterval: 5 * time.Millisecond,
		GuardTicks:   2,
	})
	t.Cleanup(m.Close)
	s, err := New(Config{Source: m, Journal: m.Journal(), Control: m})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func postSpec(t *testing.T, ts *httptest.Server, cs spec.ChainSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/chains", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestChainsSubmitStatusRollout(t *testing.T) {
	ts, m := chainsServer(t)

	resp := postSpec(t, ts, spec.ChainSpec{Name: "web", Revision: 1, Chain: "ipv4,firewall:300"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /chains = %d, want 202", resp.StatusCode)
	}
	var st control.ChainStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Name != "web" || terminalState(st.State) {
		t.Fatalf("admission status = %+v, want an in-flight rollout", st)
	}

	if got := m.Await("web"); got.State != control.StateLive {
		t.Fatalf("rollout ended %s (err=%q)", got.State, got.Err)
	}

	// The watch endpoint carries the status plus the journaled decisions.
	resp, err := http.Get(ts.URL + "/chains/web/rollout")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status    control.ChainStatus `json:"status"`
		Decisions []json.RawMessage   `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Status.State != control.StateLive {
		t.Errorf("rollout status = %s, want Live", body.Status.State)
	}
	if len(body.Decisions) < 5 {
		t.Errorf("rollout decisions = %d, want the full transition trail", len(body.Decisions))
	}

	// GET /chains lists it; GET /chains/{name} serves the same status.
	resp, err = http.Get(ts.URL + "/chains")
	if err != nil {
		t.Fatal(err)
	}
	var list []control.ChainStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Name != "web" {
		t.Errorf("chains list = %+v", list)
	}
	if resp, _ = http.Get(ts.URL + "/chains/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown chain = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestChainsSubmitRejections(t *testing.T) {
	ts, m := chainsServer(t)

	resp, err := http.Post(ts.URL+"/chains", "application/json",
		bytes.NewReader([]byte(`{"name":"x","revision":1,"chain":"bogus"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec = %d, want 400", resp.StatusCode)
	}

	resp = postSpec(t, ts, spec.ChainSpec{Name: "x", Revision: 1, Chain: "ipv4"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	m.Await("x")
	resp = postSpec(t, ts, spec.ChainSpec{Name: "x", Revision: 1, Chain: "ipv4"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale revision = %d, want 409", resp.StatusCode)
	}
}

func TestChainsRollbackEndpoint(t *testing.T) {
	ts, m := chainsServer(t)

	postSpec(t, ts, spec.ChainSpec{Name: "x", Revision: 1, Chain: "ipv4"}).Body.Close()
	m.Await("x")
	postSpec(t, ts, spec.ChainSpec{Name: "x", Revision: 2, Chain: "ipv4,ids"}).Body.Close()
	m.Await("x")

	resp, err := http.Post(ts.URL+"/chains/x/rollback", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st control.ChainStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.LiveRevision != 1 {
		t.Fatalf("rollback = %d %+v, want 200 with revision 1 live", resp.StatusCode, st)
	}

	resp, _ = http.Post(ts.URL+"/chains/x/rollback", "application/json", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second rollback = %d, want 409", resp.StatusCode)
	}
}

// terminalState mirrors the unexported control predicate for assertions.
func terminalState(s control.State) bool {
	return s == control.StateLive || s == control.StateRolledBack || s == control.StateFailed
}
