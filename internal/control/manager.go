package control

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/nf"
	"nfcompass/internal/spec"
)

// State is a chain's position in the rollout state machine.
type State string

const (
	// StateValidating builds each candidate spec once and deploys the
	// candidate tenant set as one composition, placement included; a
	// failed build or deploy fails the rollout before anything runs.
	StateValidating State = "Validating"
	// StateProfiling runs a calibration burst through the canary replica
	// to establish the revision's latency baseline.
	StateProfiling State = "Profiling"
	// StateAllocating journals the composition's placement (GTA's
	// selected candidate when any live spec asks for offload, CPU-only
	// otherwise) and applies it to the canary.
	StateAllocating State = "Allocating"
	// StateCanary is the guard window: the candidate composition runs on a
	// single replica — the new placement on one shard — while the e2e p99
	// ring is watched against the spec's SLO.
	StateCanary State = "Canary"
	// StateLive means the revision was promoted to the shared N-shard
	// dataplane.
	StateLive State = "Live"
	// StateRolledBack means the canary breached the SLO (or an operator
	// asked) and the previous revision kept serving.
	StateRolledBack State = "RolledBack"
	// StateFailed means the rollout aborted on an error before the canary
	// could judge it.
	StateFailed State = "Failed"
)

// terminal reports whether a rollout has finished (successfully or not).
func terminal(s State) bool {
	return s == StateLive || s == StateRolledBack || s == StateFailed
}

// ChainStatus is one chain's externally visible state — what GET
// /chains/{name} and nfctl status report.
type ChainStatus struct {
	Name string `json:"name"`
	// State is the latest rollout's state (possibly mid-flight).
	State State `json:"state"`
	// Target is the spec that rollout concerns.
	Target spec.ChainSpec `json:"target"`
	// LiveRevision is the revision currently serving (0 = none yet);
	// PrevRevision the rollback target retained from the last promotion.
	LiveRevision int `json:"live_revision"`
	PrevRevision int `json:"prev_revision,omitempty"`
	// CanaryP99Us is the last windowed e2e p99 the canary observed, and
	// HealthyTicks how many consecutive guard ticks it has survived.
	CanaryP99Us  float64 `json:"canary_p99_us,omitempty"`
	HealthyTicks int     `json:"healthy_ticks,omitempty"`
	Err          string  `json:"err,omitempty"`
}

// Config tunes a Manager. The zero value works: every field has a default
// chosen for tests and small deployments; -serve raises Shards.
type Config struct {
	// Shards is the default replica count of the shared dataplane (a
	// spec's Shards knob can raise it; default 2).
	Shards int
	// TickInterval paces canary observation ticks (default 20ms).
	TickInterval time.Duration
	// GuardTicks is how many consecutive healthy ticks promote a canary
	// when the spec does not say (default 3).
	GuardTicks int
}

const (
	// canaryBatches is the per-tenant traffic burst injected each canary
	// tick.
	canaryBatches = 4
	// journalCap bounds the decision journal.
	journalCap = 256
	// queueDepth is the shared dataplane's queue depth.
	queueDepth = 64
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 20 * time.Millisecond
	}
	if c.GuardTicks <= 0 {
		c.GuardTicks = 3
	}
	return c
}

// Manager is the rollout coordinator: it owns the shared multi-tenant
// dataplane and takes every submitted ChainSpec revision through the state
// machine above. One rollout runs at a time (rollMu); submissions arriving
// mid-rollout queue behind it. Every transition is journaled.
type Manager struct {
	cfg     Config
	journal *core.DecisionJournal
	// batchID hands out dataplane-unique batch IDs across all tenants and
	// generations — the e2e latency ring is keyed by ID.
	batchID atomic.Uint64

	// mu guards chains, live and closed; rollMu serializes whole rollouts
	// (and manual rollbacks) end to end. Lock order: rollMu before mu.
	mu     sync.Mutex
	chains map[string]*chainState
	live   *generation
	closed bool

	rollMu sync.Mutex
	wg     sync.WaitGroup
}

// chainState is one chain's control record: the serving revision, the
// retained rollback target, and the latest rollout's status.
type chainState struct {
	cur    *spec.ChainSpec
	prev   *spec.ChainSpec
	status ChainStatus
}

// generation is one running incarnation of the shared dataplane. Rollouts
// replace the whole generation (specs are declarative; shards must stay
// structurally identical, so in-place graph surgery is not an option) and
// drain the old one after the swap.
type generation struct {
	comp *Composition
	sp   *dataplane.ShardedPipeline
	// nic steers the manager's synthetic bursts onto the shards by flow, as
	// the RSS queues in front of a replayed source would.
	nic     *ingress.NIC
	cancel  context.CancelFunc
	drained chan struct{}
	// counts is the per-tenant boundary accounting, indexed by demux tag:
	// the pump counts injections, the output collector counts releases and
	// drops by each packet's Tenant annotation. Report.PerTenant is
	// stamped from it.
	counts map[uint16]*tenantCounter
}

// tenantCounter is one tenant's atomic boundary counters.
type tenantCounter struct {
	name          string
	in, out, drop atomic.Uint64
}

// perTenant renders the counters as Report rows, sorted by tenant name.
func (g *generation) perTenant() []dataplane.TenantTotals {
	out := make([]dataplane.TenantTotals, 0, len(g.counts))
	for _, c := range g.counts {
		out = append(out, dataplane.TenantTotals{
			Tenant:      c.name,
			InPackets:   c.in.Load(),
			OutPackets:  c.out.Load(),
			DropPackets: c.drop.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// NewManager builds an idle coordinator; the dataplane comes up with the
// first promoted chain.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		journal: core.NewDecisionJournal(journalCap),
		chains:  map[string]*chainState{},
	}
}

// Journal returns the rollout decision journal (shared surface with the
// adaptor's /decisions endpoint).
func (m *Manager) Journal() *core.DecisionJournal { return m.journal }

// ErrInvalidSpec marks a Submit error caused by the spec itself (bad
// field, unknown NF) rather than by the chain's rollout state.
var ErrInvalidSpec = errors.New("control: invalid chain spec")

// Submit starts an asynchronous rollout of s. It returns immediately after
// admission checks; poll Status / Await for the outcome. Admission builds
// the spec's chain, and the rollout deploys that build. A revision must be
// greater than the chain's live revision, and only one rollout per chain
// may be in flight.
func (m *Manager) Submit(s spec.ChainSpec) error {
	chain, err := s.Build()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("control: manager closed")
	}
	cs := m.chains[s.Name]
	if cs == nil {
		cs = &chainState{}
		m.chains[s.Name] = cs
	}
	if cs.status.State != "" && !terminal(cs.status.State) {
		m.mu.Unlock()
		return fmt.Errorf("control: chain %q: rollout of revision %d still in flight",
			s.Name, cs.status.Target.Revision)
	}
	if cs.cur != nil && s.Revision <= cs.cur.Revision {
		m.mu.Unlock()
		return fmt.Errorf("control: chain %q: revision %d not above live revision %d",
			s.Name, s.Revision, cs.cur.Revision)
	}
	cs.status = ChainStatus{
		Name:         s.Name,
		State:        StateValidating,
		Target:       s,
		LiveRevision: revOf(cs.cur),
		PrevRevision: revOf(cs.prev),
	}
	m.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.rollout(s, chain)
	}()
	return nil
}

// Await blocks until the chain's latest rollout reaches a terminal state
// and returns it. Unknown chains return a zero status.
func (m *Manager) Await(name string) ChainStatus {
	for {
		st, ok := m.Status(name)
		if !ok || terminal(st.State) {
			return st
		}
		time.Sleep(m.cfg.TickInterval / 4)
	}
}

// Status returns the chain's current status.
func (m *Manager) Status(name string) (ChainStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cs, ok := m.chains[name]
	if !ok {
		return ChainStatus{}, false
	}
	return cs.status, true
}

// Chains returns every chain's status, sorted by name.
func (m *Manager) Chains() []ChainStatus {
	m.mu.Lock()
	out := make([]ChainStatus, 0, len(m.chains))
	for _, cs := range m.chains {
		out = append(out, cs.status)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot implements telemetry.Snapshotter over the live generation; an
// idle manager reports an empty dataplane.
func (m *Manager) Snapshot() *dataplane.Report {
	m.mu.Lock()
	gen := m.live
	m.mu.Unlock()
	if gen == nil {
		return &dataplane.Report{}
	}
	rep := gen.sp.Snapshot()
	rep.PerTenant = gen.perTenant()
	return rep
}

// Pump drives one self-drive tick: a burst of batches (per tenant) of each
// tenant's spec-shaped synthetic traffic through the live generation. A
// no-op while no chain is live. It serializes against rollouts, so traffic
// pauses during a generation swap instead of racing the drain.
func (m *Manager) Pump(batches int) error {
	m.rollMu.Lock()
	defer m.rollMu.Unlock()
	m.mu.Lock()
	gen := m.live
	m.mu.Unlock()
	if gen == nil {
		return nil
	}
	if err := m.pumpInto(gen, batches); err != nil {
		return err
	}
	// Wait for the burst to drain: the manager is the generation's only
	// injector, so once every tenant's released+dropped count catches up
	// with its injected count the snapshot a caller takes next includes
	// this tick's traffic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, c := range gen.counts {
			if c.out.Load()+c.drop.Load() < c.in.Load() {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("control: pumped burst did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// Rollback reverts a chain to its retained previous revision, rebuilding
// the shared dataplane without it. The previous revision served before, so
// it returns to Live without a canary pass.
func (m *Manager) Rollback(name string) (ChainStatus, error) {
	m.rollMu.Lock()
	defer m.rollMu.Unlock()
	m.mu.Lock()
	cs := m.chains[name]
	if cs == nil || cs.cur == nil {
		m.mu.Unlock()
		return ChainStatus{}, fmt.Errorf("control: chain %q: nothing live to roll back", name)
	}
	if cs.prev == nil {
		m.mu.Unlock()
		return ChainStatus{}, fmt.Errorf("control: chain %q: no previous revision retained", name)
	}
	target := *cs.prev
	m.mu.Unlock()

	comp, err := Compose(m.candidateSpecs(target), nil)
	if err != nil {
		return ChainStatus{}, err
	}
	gen, err := m.newGeneration(comp, m.effectiveShards(comp), comp.Assignment)
	if err != nil {
		return ChainStatus{}, err
	}
	m.mu.Lock()
	old := m.live
	m.live = gen
	cs.cur, cs.prev = &target, nil
	cs.status = ChainStatus{
		Name:         name,
		State:        StateLive,
		Target:       target,
		LiveRevision: target.Revision,
	}
	st := cs.status
	m.mu.Unlock()
	if old != nil {
		old.stop()
	}
	m.journal.Record(core.Decision{
		Accepted: true, Reason: "manual rollback",
		Chain: name, Revision: target.Revision, State: string(StateLive),
		Epoch: gen.sp.Epoch(),
	})
	return st, nil
}

// Close waits for in-flight rollouts and stops the live generation.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.wg.Wait()
	m.rollMu.Lock()
	defer m.rollMu.Unlock()
	m.mu.Lock()
	gen := m.live
	m.live = nil
	m.mu.Unlock()
	if gen != nil {
		gen.stop()
	}
}

// rollout runs the full state machine for one submitted revision, whose
// chain admission built.
func (m *Manager) rollout(s spec.ChainSpec, chain []*nf.NF) {
	m.rollMu.Lock()
	defer m.rollMu.Unlock()

	// Validating: compose the candidate tenant set — the live specs with s
	// replacing (or adding) its chain — into one placed deployment.
	m.note(s, StateValidating, "composing candidate tenant set", core.Decision{})
	comp, err := Compose(m.candidateSpecs(s), map[string][]*nf.NF{s.Name: chain})
	if err != nil {
		m.fail(s, err)
		return
	}

	// Profiling: bring up the canary — the candidate composition on a
	// single replica, the "new placement on one shard" of the rollout —
	// and push a calibration burst through it to prime caches and record
	// the revision's baseline tail.
	canary, err := m.newGeneration(comp, 1, nil)
	if err != nil {
		m.fail(s, err)
		return
	}
	defer canary.stop() // promotion builds fresh replicas; the canary never survives
	if err := m.pumpInto(canary, canaryBatches); err != nil {
		m.fail(s, err)
		return
	}
	time.Sleep(m.cfg.TickInterval)
	base := canary.sp.E2E()
	m.note(s, StateProfiling, "canary calibration burst", core.Decision{
		P99Ns: base.Percentile(99),
	})

	// Allocating: apply the composition's placement to the canary so the
	// guard window judges what will actually be promoted.
	how, alloc := "cpu-only (no live spec sets offload)", core.Decision{}
	if comp.Alloc != nil {
		var off []string
		for id, pl := range comp.Assignment {
			if pl.Mode != hetsim.ModeCPU {
				off = append(off, comp.Graph.Node(id).Name())
			}
		}
		sort.Strings(off)
		alloc = core.Decision{Candidate: comp.Alloc.Selected,
			PredictedCostNs: comp.Alloc.Cost, MeasuredGbps: comp.Alloc.Gbps}
		how = fmt.Sprintf("gta selected %q: %d of %d elements off-CPU %v",
			alloc.Candidate, len(off), comp.Graph.Len(), off)
	}
	m.note(s, StateAllocating, how, alloc)
	if len(comp.Assignment) > 0 {
		if err := canary.sp.Apply(comp.Assignment); err != nil {
			m.fail(s, err)
			return
		}
	}

	// Canary: the guard window. Each tick injects a per-tenant burst,
	// waits an interval, and windows the cumulative e2e ring to this
	// tick's distribution; GuardTicks consecutive healthy ticks promote,
	// one SLO breach rolls back.
	guard := s.SLO.GuardTicks
	if guard <= 0 {
		guard = m.cfg.GuardTicks
	}
	sloNs := s.SLO.P99Us * 1e3
	m.note(s, StateCanary, fmt.Sprintf("guard window: %d ticks, SLO p99 %.0fns", guard, sloNs),
		core.Decision{BaselineP99Ns: sloNs})
	prev := canary.sp.E2E()
	healthy, observed := 0, false
	var lastP99 float64
	// Empty windows (traffic still in flight) do not count either way, but
	// a canary that never produces samples must not promote by default.
	for tick := 0; healthy < guard; tick++ {
		if tick >= guard*4+8 {
			if !observed {
				m.fail(s, fmt.Errorf("canary produced no latency samples in %d ticks", tick))
				return
			}
			break // observed and never breached: treat the stall as healthy
		}
		if err := m.pumpInto(canary, canaryBatches); err != nil {
			m.fail(s, err)
			return
		}
		time.Sleep(m.cfg.TickInterval)
		cur := canary.sp.E2E()
		w := cur.Window(prev)
		prev = cur
		if w.Count == 0 {
			continue
		}
		observed = true
		lastP99 = w.Percentile(99)
		if sloNs > 0 && lastP99 > sloNs {
			m.rollbackCanary(s, lastP99, sloNs, healthy)
			return
		}
		healthy++
		m.progress(s.Name, lastP99/1e3, healthy)
	}

	// Promote: fresh N-shard generation of the candidate composition,
	// swapped in whole; the old generation drains after the swap.
	gen, err := m.newGeneration(comp, m.effectiveShards(comp), comp.Assignment)
	if err != nil {
		m.fail(s, err)
		return
	}
	m.mu.Lock()
	old := m.live
	m.live = gen
	cs := m.chains[s.Name]
	if cs.cur != nil {
		prevSpec := *cs.cur
		cs.prev = &prevSpec
	}
	cur := s
	cs.cur = &cur
	cs.status.State = StateLive
	cs.status.LiveRevision = s.Revision
	cs.status.PrevRevision = revOf(cs.prev)
	cs.status.CanaryP99Us = lastP99 / 1e3
	m.mu.Unlock()
	if old != nil {
		old.stop()
	}
	m.journal.Record(core.Decision{
		Accepted: true, Reason: "canary healthy: promoted",
		Chain: s.Name, Revision: s.Revision, State: string(StateLive),
		P99Ns: lastP99, BaselineP99Ns: sloNs, Epoch: gen.sp.Epoch(),
	})
}

// rollbackCanary records an SLO breach: the canary is discarded and the
// previously live revision keeps serving untouched.
func (m *Manager) rollbackCanary(s spec.ChainSpec, p99, sloNs float64, healthy int) {
	msg := fmt.Sprintf("SLO breach: canary e2e p99 %.0fns > %.0fns after %d healthy ticks",
		p99, sloNs, healthy)
	m.mu.Lock()
	cs := m.chains[s.Name]
	cs.status.State = StateRolledBack
	cs.status.Err = msg
	cs.status.CanaryP99Us = p99 / 1e3
	cs.status.HealthyTicks = healthy
	m.mu.Unlock()
	m.journal.Record(core.Decision{
		Reason: "SLO breach: rolled back",
		Chain:  s.Name, Revision: s.Revision, State: string(StateRolledBack),
		P99Ns: p99, BaselineP99Ns: sloNs,
	})
}

// fail aborts a rollout on an error.
func (m *Manager) fail(s spec.ChainSpec, err error) {
	m.mu.Lock()
	cs := m.chains[s.Name]
	cs.status.State = StateFailed
	cs.status.Err = err.Error()
	m.mu.Unlock()
	m.journal.Record(core.Decision{
		Reason: "error", Err: err.Error(),
		Chain: s.Name, Revision: s.Revision, State: string(StateFailed),
	})
}

// note journals a state transition (carrying any extra measured fields in
// d) and publishes it to the chain's status.
func (m *Manager) note(s spec.ChainSpec, st State, reason string, d core.Decision) {
	m.mu.Lock()
	cs := m.chains[s.Name]
	cs.status.State = st
	m.mu.Unlock()
	d.Reason = reason
	d.Chain = s.Name
	d.Revision = s.Revision
	d.State = string(st)
	m.journal.Record(d)
}

// progress publishes the canary's latest observation.
func (m *Manager) progress(name string, p99Us float64, healthy int) {
	m.mu.Lock()
	if cs := m.chains[name]; cs != nil {
		cs.status.CanaryP99Us = p99Us
		cs.status.HealthyTicks = healthy
	}
	m.mu.Unlock()
}

// candidateSpecs returns the live spec set with s replacing (or adding)
// its own chain — the tenant mix a rollout of s must prove itself in.
func (m *Manager) candidateSpecs(s spec.ChainSpec) []spec.ChainSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []spec.ChainSpec{s}
	for name, cs := range m.chains {
		if name == s.Name || cs.cur == nil {
			continue
		}
		out = append(out, *cs.cur)
	}
	return out
}

// effectiveShards is the promoted generation's replica count: the largest
// per-spec request, floored at the manager default.
func (m *Manager) effectiveShards(comp *Composition) int {
	shards := m.cfg.Shards
	for _, s := range comp.Specs {
		if s.Shards > shards {
			shards = s.Shards
		}
	}
	return shards
}

// newGeneration builds and starts one incarnation of the shared dataplane.
// Metrics are always on: the canary guard reads the e2e ring and the
// telemetry layer reads per-tenant counters.
func (m *Manager) newGeneration(comp *Composition, shards int, assign hetsim.Assignment) (*generation, error) {
	sp, err := dataplane.NewSharded(comp.Build, dataplane.ShardedConfig{
		Config: dataplane.Config{
			Metrics:    true,
			QueueDepth: queueDepth,
			Tenants:    comp.Tenants,
			Assignment: assign,
		},
		Shards: shards,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	sp.Start(ctx)
	gen := &generation{
		comp: comp, sp: sp, nic: ingress.NewNIC(sp.NumShards()), cancel: cancel,
		drained: make(chan struct{}),
		counts:  make(map[uint16]*tenantCounter, len(comp.Specs)),
	}
	for name, tag := range comp.Tags {
		gen.counts[tag] = &tenantCounter{name: name}
	}
	go func() {
		defer close(gen.drained)
		for b := range sp.Out() {
			for _, p := range b.Packets {
				c := gen.counts[p.Tenant]
				if c == nil {
					continue
				}
				if p.Dropped {
					c.drop.Add(1)
				} else {
					c.out.Add(1)
				}
			}
		}
	}()
	return gen, nil
}

// stop drains and tears down a generation: close the shard inputs, let
// every shard drain, then release the context.
func (g *generation) stop() {
	g.sp.CloseInput()
	<-g.drained
	_ = g.sp.Wait()
	g.cancel()
}

// pumpInto injects one burst of every tenant's spec-shaped traffic into a
// generation, tagging packets with the tenant's demux tag and stamping
// dataplane-unique batch IDs.
func (m *Manager) pumpInto(gen *generation, batches int) error {
	for _, s := range gen.comp.Specs {
		tag := gen.comp.Tags[s.Name]
		for _, b := range tenantTraffic(s, tag, batches) {
			if c := gen.counts[tag]; c != nil {
				c.in.Add(uint64(len(b.Packets)))
			}
			b.ID = m.batchID.Add(1)
			if !gen.nic.Steer(context.Background(), gen.sp, b) {
				return fmt.Errorf("control: dataplane stopped mid-pump")
			}
		}
	}
	return nil
}

// revOf returns a spec's revision, tolerating nil.
func revOf(s *spec.ChainSpec) int {
	if s == nil {
		return 0
	}
	return s.Revision
}
