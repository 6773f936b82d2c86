package control

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/spec"
)

func testManager() *Manager {
	return NewManager(Config{
		Shards:       2,
		TickInterval: 5 * time.Millisecond,
		GuardTicks:   2,
	})
}

func mustLive(t *testing.T, m *Manager, s spec.ChainSpec) ChainStatus {
	t.Helper()
	if err := m.Submit(s); err != nil {
		t.Fatalf("submit %s rev %d: %v", s.Name, s.Revision, err)
	}
	st := m.Await(s.Name)
	if st.State != StateLive {
		t.Fatalf("chain %s rev %d ended %s (err=%q), want Live",
			s.Name, s.Revision, st.State, st.Err)
	}
	return st
}

func journalStates(j *core.DecisionJournal, chain string, rev int) []string {
	var out []string
	for _, d := range j.Entries() {
		if d.Chain == chain && d.Revision == rev {
			out = append(out, d.State)
		}
	}
	return out
}

func TestRolloutPromotesToLive(t *testing.T) {
	m := testManager()
	defer m.Close()

	st := mustLive(t, m, spec.ChainSpec{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"})
	if st.LiveRevision != 1 {
		t.Errorf("live revision = %d, want 1", st.LiveRevision)
	}
	if st.CanaryP99Us <= 0 {
		t.Errorf("canary p99 = %v, want an observed latency", st.CanaryP99Us)
	}

	// Every state transition is journaled, in order, ending in Live.
	states := journalStates(m.Journal(), "alpha", 1)
	want := []string{"Validating", "Profiling", "Allocating", "Canary", "Live"}
	if len(states) != len(want) {
		t.Fatalf("journaled states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("journaled states = %v, want %v", states, want)
		}
	}
}

func TestTwoTenantsShareOneDataplane(t *testing.T) {
	m := testManager()
	defer m.Close()

	mustLive(t, m, spec.ChainSpec{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"})
	mustLive(t, m, spec.ChainSpec{Name: "beta", Revision: 1, Chain: "ipv4,ids"})

	if err := m.Pump(4); err != nil {
		t.Fatal(err)
	}
	rep := m.Snapshot()
	if len(rep.PerTenant) != 2 {
		t.Fatalf("PerTenant rows = %+v, want alpha and beta", rep.PerTenant)
	}
	for _, tt := range rep.PerTenant {
		if tt.InPackets == 0 || tt.OutPackets == 0 {
			t.Errorf("tenant %s totals = %+v, want traffic both ways", tt.Tenant, tt)
		}
		if tt.OutPackets+tt.DropPackets != tt.InPackets {
			t.Errorf("tenant %s leaks packets: %+v", tt.Tenant, tt)
		}
	}
	// Per-tenant element attribution flows into the aggregated report.
	tenants := map[string]bool{}
	for _, e := range rep.Elements {
		if e.Tenant != "" {
			tenants[e.Tenant] = true
		}
	}
	if !tenants["alpha"] || !tenants["beta"] {
		t.Errorf("element tenant labels = %v, want both tenants", tenants)
	}
}

func TestCanarySLOBreachRollsBack(t *testing.T) {
	m := testManager()
	defer m.Close()

	mustLive(t, m, spec.ChainSpec{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"})

	// Revision 2 carries an unmeetable SLO (1ns e2e p99): the canary must
	// breach on its first observed window and roll back, leaving revision
	// 1 serving.
	bad := spec.ChainSpec{
		Name: "alpha", Revision: 2, Chain: "ipv4,firewall:300,dpi",
		SLO: spec.SLO{P99Us: 0.001},
	}
	if err := m.Submit(bad); err != nil {
		t.Fatal(err)
	}
	st := m.Await("alpha")
	if st.State != StateRolledBack {
		t.Fatalf("state = %s (err=%q), want RolledBack", st.State, st.Err)
	}
	if st.LiveRevision != 1 {
		t.Errorf("live revision = %d, want 1 (rollback keeps the prior revision)", st.LiveRevision)
	}
	if !strings.Contains(st.Err, "SLO breach") {
		t.Errorf("status error = %q, want an SLO breach explanation", st.Err)
	}

	// The breach is journaled with the measured tail and the target.
	var found bool
	for _, d := range m.Journal().Entries() {
		if d.Chain == "alpha" && d.Revision == 2 && d.State == string(StateRolledBack) {
			found = true
			if d.Accepted {
				t.Error("rollback journaled as accepted")
			}
			if d.P99Ns <= d.BaselineP99Ns {
				t.Errorf("journaled p99 %v not above SLO %v", d.P99Ns, d.BaselineP99Ns)
			}
		}
	}
	if !found {
		t.Error("no RolledBack decision journaled for revision 2")
	}

	// The surviving generation still serves revision 1's traffic.
	if err := m.Pump(2); err != nil {
		t.Fatal(err)
	}
	if rep := m.Snapshot(); len(rep.PerTenant) != 1 || rep.PerTenant[0].OutPackets == 0 {
		t.Errorf("post-rollback dataplane idle: %+v", rep.PerTenant)
	}
}

func TestManualRollback(t *testing.T) {
	m := testManager()
	defer m.Close()

	mustLive(t, m, spec.ChainSpec{Name: "alpha", Revision: 1, Chain: "ipv4,firewall:300"})
	st := mustLive(t, m, spec.ChainSpec{Name: "alpha", Revision: 2, Chain: "ipv4,ids"})
	if st.PrevRevision != 1 {
		t.Fatalf("prev revision = %d, want 1", st.PrevRevision)
	}

	st, err := m.Rollback("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateLive || st.LiveRevision != 1 {
		t.Fatalf("after rollback: %+v, want revision 1 live", st)
	}
	if _, err := m.Rollback("alpha"); err == nil {
		t.Error("second rollback succeeded with no retained revision")
	}
	if _, err := m.Rollback("ghost"); err == nil {
		t.Error("rollback of unknown chain succeeded")
	}
}

func TestSubmitAdmissionChecks(t *testing.T) {
	m := testManager()
	defer m.Close()

	// A spec that does not build is refused before any rollout starts.
	for _, bad := range []spec.ChainSpec{
		{Name: "x", Revision: 1, Chain: "bogus"},
		{Name: "", Revision: 1, Chain: "ipv4"},
		{Name: "a", Revision: 0, Chain: "ipv4"},
		{Name: "a", Revision: 1, Chain: "ipv4", Shards: -1},
		{Name: "a", Revision: 1, Chain: "ipv4", BatchSize: -1},
		{Name: "a", Revision: 1, Chain: "ipv4", SLO: spec.SLO{P99Us: -5}},
	} {
		if err := m.Submit(bad); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("Submit(%+v) = %v, want ErrInvalidSpec", bad, err)
		}
	}
	if len(m.Chains()) != 0 {
		t.Errorf("refused specs left chains %v", m.Chains())
	}
	mustLive(t, m, spec.ChainSpec{Name: "x", Revision: 2, Chain: "ipv4"})
	if err := m.Submit(spec.ChainSpec{Name: "x", Revision: 2, Chain: "ipv4"}); err == nil {
		t.Error("stale revision admitted")
	}
	if err := m.Submit(spec.ChainSpec{Name: "x", Revision: 1, Chain: "ipv4"}); err == nil {
		t.Error("older revision admitted")
	}
}

func TestOffloadRolloutAppliesAssignment(t *testing.T) {
	m := testManager()
	defer m.Close()

	// A DPI-heavy chain with the offload knob: GTA places part of it
	// off-CPU, and the rollout must still promote.
	st := mustLive(t, m, heavySpec())
	if st.LiveRevision != 1 {
		t.Fatalf("live revision = %d", st.LiveRevision)
	}
	// The Allocating decision names GTA's selected candidate and the
	// elements it placed off-CPU.
	var alloc *core.Decision
	for _, d := range m.Journal().Entries() {
		if d.Chain == "heavy" && d.State == string(StateAllocating) {
			alloc = &d
		}
	}
	if alloc == nil {
		t.Fatal("no Allocating decision journaled")
	}
	if alloc.Candidate == "" || alloc.Candidate == "cpu-only" {
		t.Errorf("allocating candidate = %q, want a placement", alloc.Candidate)
	}
	if alloc.PredictedCostNs <= 0 || alloc.MeasuredGbps <= 0 {
		t.Errorf("allocating predicted=%vns measured=%vGbps, want both > 0",
			alloc.PredictedCostNs, alloc.MeasuredGbps)
	}
	if !strings.Contains(alloc.Reason, "heavy/") || strings.Contains(alloc.Reason, " 0 of ") {
		t.Errorf("allocating reason = %q, want heavy's off-CPU elements named", alloc.Reason)
	}
	assertOffloaded(t, m, "heavy")
}

func heavySpec() spec.ChainSpec {
	return spec.ChainSpec{Name: "heavy", Revision: 1, Chain: "ipv4,dpi", Offload: true, PktSize: 512}
}

// assertOffloaded requires the live generation to run one of the tenant's
// elements off the CPU.
func assertOffloaded(t *testing.T, m *Manager, tenant string) {
	t.Helper()
	var seen []string
	for _, e := range m.Snapshot().Elements {
		if e.Tenant == tenant && e.Placement != "cpu" {
			return
		}
		seen = append(seen, e.Name+"="+e.Placement)
	}
	t.Errorf("no %s element placed off-CPU on the live generation: %v", tenant, seen)
}

// TestOffloadSurvivesOtherTenantsRollout pins that a promotion or a
// rollback of one tenant keeps every other tenant's placement: the live
// generation runs the whole composition's.
func TestOffloadSurvivesOtherTenantsRollout(t *testing.T) {
	m := testManager()
	defer m.Close()

	mustLive(t, m, heavySpec())
	assertOffloaded(t, m, "heavy")
	mustLive(t, m, spec.ChainSpec{Name: "light", Revision: 1, Chain: "ipv4"})
	assertOffloaded(t, m, "heavy")

	mustLive(t, m, spec.ChainSpec{Name: "light", Revision: 2, Chain: "ipv4"})
	if _, err := m.Rollback("light"); err != nil {
		t.Fatal(err)
	}
	assertOffloaded(t, m, "heavy")
}
